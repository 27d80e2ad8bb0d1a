#include "core/checkpoint.hpp"

#include <new>

#include "core/fault.hpp"

namespace tango::core {

std::uint64_t Checkpointer::copy_cost_bytes(const SearchState& st) {
  // Shallow estimate: top-level containers only. Enough to compare copy
  // vs. trail orders of magnitude without a full value-tree walk (which
  // would itself cost what we are trying to avoid measuring).
  std::uint64_t bytes = sizeof(SearchState);
  bytes += st.machine.vars.size() * sizeof(rt::Value);
  bytes += st.machine.heap.live_cells() *
           (sizeof(rt::Value) + sizeof(std::uint32_t));
  bytes += 2ull * static_cast<std::uint64_t>(st.cursors.ip_count()) *
           sizeof(std::uint32_t);
  return bytes;
}

SearchState Checkpointer::snapshot(const SearchState& st) {
  // Debug-build injection point for the allocation-failure degradation
  // path: a materialized copy is the search's dominant allocation.
  if (fault_probe(FaultSite::Alloc)) throw std::bad_alloc();
  stats_.checkpoint_bytes += copy_cost_bytes(st);
  return st;
}

void Checkpointer::log_cursor_advance(tr::Dir, int) {}

// ---------------------------------------------------------------- copy --

std::size_t CopyCheckpointer::save(const SearchState& st) {
  if (fault_probe(FaultSite::Alloc)) throw std::bad_alloc();
  const std::uint64_t bytes = copy_cost_bytes(st);
  stats_.checkpoint_bytes += bytes;
  live_bytes_ += bytes;
  snapshots_.push_back(st);
  return snapshots_.size() - 1;
}

void CopyCheckpointer::restore(std::size_t mark, SearchState& st) {
  st = snapshots_[mark];
}

void CopyCheckpointer::forget(std::size_t mark) {
  while (snapshots_.size() > mark) {
    live_bytes_ -= copy_cost_bytes(snapshots_.back());
    snapshots_.pop_back();
  }
}

// --------------------------------------------------------------- trail --

TrailCheckpointer::~TrailCheckpointer() { sync_stats(); }

void TrailCheckpointer::sync_stats() {
  const std::uint64_t total = trail_.total_logged() + cursor_logged_total_;
  stats_.trail_entries += total - synced_;
  synced_ = total;
}

std::size_t TrailCheckpointer::save(const SearchState&) {
  marks_.push_back(Mark{trail_.mark(), cursor_log_.size()});
  return marks_.size() - 1;
}

void TrailCheckpointer::restore(std::size_t mark, SearchState& st) {
  sync_stats();
  const Mark& m = marks_[mark];
  trail_.undo_to(m.trail, st.machine);
  while (cursor_log_.size() > m.cursors) {
    const CursorUndo& u = cursor_log_.back();
    // Cursors only ever advance by one, so undo is one retreat (which
    // also rewinds the maintained cursor-set hash).
    st.cursors.retreat(u.dir, u.ip);
    cursor_log_.pop_back();
  }
}

void TrailCheckpointer::forget(std::size_t mark) {
  marks_.resize(mark);
  // While an older mark is live, the dropped mark's entries belong to that
  // ancestor's span and its restore rewinds them. With none left, no
  // restore can reach them any more: the log is committed.
  if (marks_.empty()) {
    sync_stats();
    trail_.clear();
    cursor_log_.clear();
  }
}

void TrailCheckpointer::log_cursor_advance(tr::Dir dir, int ip) {
  if (marks_.empty()) return;  // nothing to rewind to
  cursor_log_.push_back(CursorUndo{dir, ip});
  ++cursor_logged_total_;
}

std::uint64_t TrailCheckpointer::live_bytes() const {
  return trail_.bytes() + cursor_log_.size() * sizeof(CursorUndo);
}

std::unique_ptr<Checkpointer> make_checkpointer(CheckpointMode mode,
                                                Stats& stats) {
  if (mode == CheckpointMode::Copy) {
    return std::make_unique<CopyCheckpointer>(stats);
  }
  return std::make_unique<TrailCheckpointer>(stats);
}

}  // namespace tango::core
