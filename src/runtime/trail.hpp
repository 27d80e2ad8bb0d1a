// Undo-log (trail) for the paper's §2.2 save/restore primitives. Instead of
// deep-copying the whole module state at every branching node (the §3.2.2
// cost the paper measures as SA), *save* records the current trail length
// and every subsequent mutation of the machine state pushes one undo entry;
// *restore* pops entries back to the mark, reverting them in reverse order.
//
// Granularity: module variables are logged per top-level slot and heap
// cells per address (a write through a field/index path captures the whole
// root value). Interior Value pointers are never stored — an entry is keyed
// by slot index or heap address, so it survives wholesale reassignment of
// the value it reverts.
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
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/thread_affinity.hpp"
#include "runtime/value.hpp"

namespace tango::rt {

class Trail {
 public:
  /// A position in the log; save = mark(), restore = undo_to(mark).
  using Mark = std::size_t;

  [[nodiscard]] Mark mark() const { return entries_.size(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Bytes the live entries occupy (entry records; nested record/array
  /// payloads of saved values not counted).
  [[nodiscard]] std::size_t bytes() const {
    return entries_.size() * sizeof(Entry);
  }
  /// Monotone count of entries ever logged (undo does not decrease it);
  /// feeds the Stats trail-entry counter.
  [[nodiscard]] std::uint64_t total_logged() const { return total_logged_; }

  /// The FSM state ordinal is about to change. (No cache entry: the FSM
  /// component is never cached — machine.hpp.)
  void log_fsm(int old_state);
  /// Module variable `slot` is about to be written (whole-slot old value).
  /// `prior` is the hash-cache entry the write clobbers
  /// (MachineState::var_cache_entry, captured before the mutation);
  /// undo_to hands it back so backtracking never rehashes.
  void log_var(int slot, const Value& old_value, CompCache prior = {});
  /// Heap cell `addr` is about to be written. `prior` is
  /// MachineState::heap_cache_entry() captured before the epoch bump.
  void log_heap_write(std::uint32_t addr, const Value& old_value,
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
  }

 private:
  enum class Kind : std::uint8_t {
    Fsm,
    Var,
    HeapWrite,
    HeapAlloc,
    HeapRelease,
  };

  struct Entry {
    Kind kind;
    int fsm_old = 0;         // Fsm only
    std::uint32_t index = 0; // var slot or heap address
    Value old;               // previous contents (unused for Fsm/HeapAlloc)
    CompCache cache;         // hash-cache entry clobbered by the mutation
  };

  std::vector<Entry> entries_;
  std::uint64_t total_logged_ = 0;
  /// Debug-only: a trail belongs to exactly one worker for its whole life
  /// (trails are never snapshotted — only machine states are).
  ThreadAffinity affinity_;
};

}  // namespace tango::rt
