// Dynamic memory for Estelle `new`/`dispose`. The heap is part of the TAM
// state (paper §2.3), so save/restore must cover it: either by wholesale
// copy of the std::map (the deep-copy checkpointing mode, the §3.2.2 cost
// model) or by replaying per-cell undo entries from the rt::Trail (the
// revert_* hooks below).
#pragma once

#include <cstdint>
#include <map>

#include "runtime/thread_affinity.hpp"
#include "runtime/value.hpp"

namespace tango::rt {

class Heap {
 public:
  /// Allocates a fresh cell; addresses are never reused within one run,
  /// which keeps allocation deterministic across restores.
  std::uint32_t allocate(Value initial);

  /// Releases a cell. Returns false if the address was not live (double
  /// dispose or wild pointer).
  bool release(std::uint32_t addr);

  /// Live cell lookup; nullptr when the address is not allocated. The
  /// non-const overload counts as a mutation (the caller may write through
  /// the returned pointer) and bumps the epoch; pure reads must go through
  /// the const overload or they thrash the heap hash cache.
  [[nodiscard]] Value* cell(std::uint32_t addr);
  [[nodiscard]] const Value* cell(std::uint32_t addr) const;

  [[nodiscard]] std::size_t live_cells() const { return cells_.size(); }

  /// Mutation epoch: bumped by allocate/release/revert_* and by every
  /// non-const cell() lookup. The MachineState hash cache records the
  /// epoch it last hashed at; a mismatch means the heap component must be
  /// rehashed. This catches writes made *through* a cell pointer, which
  /// the heap itself never sees.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// All live cells in address order (for hashing/equality walks).
  [[nodiscard]] const std::map<std::uint32_t, Value>& cells() const {
    return cells_;
  }

  /// Trail undo of `allocate`: `addr` must be the most recent live
  /// allocation. Rewinds the allocation cursor so a re-run allocates the
  /// same address — bit-identical to what a deep-copy restore yields.
  void revert_allocate(std::uint32_t addr);

  /// Trail undo of `release`: re-inserts the cell with its old contents.
  void revert_release(std::uint32_t addr, Value old_value);

 private:
  std::map<std::uint32_t, Value> cells_;
  std::uint32_t next_ = 1;
  std::uint64_t epoch_ = 0;
  /// Debug-only: whichever thread mutates the heap first owns it; copying
  /// (snapshot for a stolen continuation) unbinds the copy.
  ThreadAffinity affinity_;
};

}  // namespace tango::rt
