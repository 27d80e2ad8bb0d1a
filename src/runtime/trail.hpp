// Undo-log (trail) for the paper's §2.2 save/restore primitives. Instead of
// deep-copying the whole module state at every branching node (the §3.2.2
// cost the paper measures as SA), *save* records the current trail length
// and every subsequent mutation of the machine state pushes one undo entry;
// *restore* pops entries back to the mark, reverting them in reverse order.
//
// Granularity: a write entry names a root (module-variable slot or heap
// address) and the Field/Index path from that root down to the location
// written, and holds only that location's old value, so `pend[i] := x`
// saves one integer, not the 128-slot array. An empty path is a whole-root
// entry. Interior Value pointers are never stored: undo walks the path
// again from the root, which is safe because entries are undone newest
// first, so every later write along the path (a whole-root assignment
// included) has already been reverted and the structure is the one the
// entry was logged against. The path indices live in one side array that
// undo and clear truncate, so an entry costs no allocation of its own.
//
// Entries must be undone in exact reverse mutation order; that is what
// makes the allocate/release entries safe to replay against the std::map
// heap and keeps the allocation cursor (`Heap::next_`) bit-identical to
// what a deep-copy restore would have produced.
//
// A log only needs to reach back to the oldest live mark: entries older
// than that can never be undone, so the owner clears the log when its last
// mark goes and passes no trail at all while none is live.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/thread_affinity.hpp"
#include "runtime/value.hpp"

namespace tango::rt {

class Trail {
 public:
  /// A position in the log; save = mark(), restore = undo_to(mark).
  using Mark = std::size_t;

  /// What a write entry's index names.
  enum class Root : std::uint8_t { Var, Heap };

  [[nodiscard]] Mark mark() const { return entries_.size(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Bytes the live log occupies: entry records plus path indices (nested
  /// record/array payloads of saved values not counted).
  [[nodiscard]] std::size_t bytes() const {
    return entries_.size() * sizeof(Entry) +
           path_.size() * sizeof(std::uint32_t);
  }
  /// Monotone count of entries ever logged (undo does not decrease it);
  /// feeds the Stats trail-entry counter.
  [[nodiscard]] std::uint64_t total_logged() const { return total_logged_; }

  /// The FSM state ordinal is about to change. (No cache entry: the FSM
  /// component is never cached — machine.hpp.)
  void log_fsm(int old_state);
  /// The location `path` below root `index` (a module-variable slot or a
  /// live heap address) is about to be written; `old_value` is its current
  /// contents. Each path step is an element position: a record's field
  /// index or an array's zero-based element offset. `prior` is the
  /// hash-cache entry the write clobbers (MachineState::var_cache_entry,
  /// or heap_cache_entry() before the epoch bump), captured before the
  /// mutation; undo_to hands it back so backtracking never rehashes.
  void log_write(Root root, std::uint32_t index,
                 std::span<const std::uint32_t> path, const Value& old_value,
                 CompCache prior = {});
  /// Heap cell `addr` was just allocated (`prior` from before the
  /// allocation).
  void log_heap_alloc(std::uint32_t addr, CompCache prior = {});
  /// Heap cell `addr` is about to be released (its last value moves in).
  void log_heap_release(std::uint32_t addr, Value old_value,
                        CompCache prior = {});

  /// Reverts every mutation logged after `m`, newest first.
  void undo_to(Mark m, MachineState& state);

  /// Commits the log: drops every entry without reverting it. For when
  /// no mark is left that could rewind past them (the checkpointer's
  /// last live mark was forgotten); until the next mark, the owner logs
  /// nothing at all.
  void clear() {
    affinity_.bind_or_check();
    entries_.clear();
    path_.clear();
  }

 private:
  enum class Kind : std::uint8_t {
    Fsm,
    Write,
    HeapAlloc,
    HeapRelease,
  };

  struct Entry {
    Kind kind = Kind::Fsm;
    Root root = Root::Var;        // Write only
    std::uint16_t path_len = 0;   // Write only: its steps end path_
    std::uint32_t index = 0;      // var slot, heap address or FSM ordinal
    Value old;                    // previous contents (Write/HeapRelease)
    CompCache cache;              // hash-cache entry clobbered by the mutation
  };
  static_assert(sizeof(Entry) <= 56);

  /// Appends a blank entry of `kind` for the caller to fill in.
  Entry& push(Kind kind) {
    affinity_.bind_or_check();
    ++total_logged_;
    Entry& e = entries_.emplace_back();
    e.kind = kind;
    return e;
  }

  std::vector<Entry> entries_;
  /// The path steps of every live Write entry, oldest first: undo pops an
  /// entry's steps off the end together with the entry.
  std::vector<std::uint32_t> path_;
  std::uint64_t total_logged_ = 0;
  /// Debug-only: a trail belongs to exactly one worker for its whole life
  /// (trails are never snapshotted — only machine states are).
  ThreadAffinity affinity_;
};

}  // namespace tango::rt
