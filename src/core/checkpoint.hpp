// The §2.2 save/restore primitives behind one interface, in two
// implementations:
//
//   CopyCheckpointer  — save() deep-copies the composite SearchState
//                       (machine vars + heap map + cursors). This is the
//                       paper's own cost model (§3.2.2) and stays as the
//                       differential oracle for the trail mode.
//   TrailCheckpointer — save() is an O(1) mark on an undo log. The
//                       interpreter pushes one undo entry per mutation
//                       (via the rt::Trail it exposes through trail()),
//                       the executor logs cursor advances here, and
//                       restore() rewinds both logs to the mark.
//
// Marks are LIFO: restore(m) may be called repeatedly while m is the
// newest live mark (once per remaining sibling of a branching node), and
// forget(m) drops it once no restore can use it — the DFS forgets a
// node's mark when it takes the node's last alternative. While no mark is
// live nothing can be rewound, so the trail mode logs nothing: trail() is
// null and cursor advances go unrecorded. MDFS takes a mark only around a
// node's last firing, when the node hands its own state to the child: a
// failed firing is restored and the mark is forgotten when the firing
// ends. Everywhere else §3.1.1 re-generation may still use the node's
// state (PG nodes park whole states), so MDFS calls snapshot(), which
// deep-copies in either mode.
//
// Both implementations count SA/RE identically (the engines own those
// counters); they differ only in the trail_entries / checkpoint_bytes
// accounting (checkpoint_diff_test holds the rest equal).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/search_state.hpp"
#include "core/stats.hpp"
#include "runtime/trail.hpp"

namespace tango::core {

class Checkpointer {
 public:
  virtual ~Checkpointer() = default;

  /// Checkpoints `st`; returns a mark for restore()/forget(). LIFO.
  virtual std::size_t save(const SearchState& st) = 0;

  /// Rewinds `st` to the state checkpointed at `mark`. Every mark newer
  /// than `mark` must already have been forgotten; `mark` itself stays
  /// valid for further restores.
  virtual void restore(std::size_t mark, SearchState& st) = 0;

  /// Drops the newest mark (must equal the most recent un-forgotten save).
  virtual void forget(std::size_t mark) = 0;

  /// Materialized deep copy for MDFS per-node states (§3.1.1).
  [[nodiscard]] SearchState snapshot(const SearchState& st);

  /// Undo log for the interpreter to push mutations onto; nullptr in copy
  /// mode and while no mark is live (the interpreter then skips logging).
  [[nodiscard]] virtual rt::Trail* trail() { return nullptr; }

  /// Records a cursor advance at (dir, ip) so trail restore can undo it.
  virtual void log_cursor_advance(tr::Dir dir, int ip);

  /// Bytes held now for the live marks: snapshot copies in copy mode,
  /// undo entries in trail mode. What the DFS memory budget charges.
  [[nodiscard]] virtual std::uint64_t live_bytes() const = 0;

  /// Shallow byte estimate of one deep copy of `st`.
  [[nodiscard]] static std::uint64_t copy_cost_bytes(const SearchState& st);

 protected:
  explicit Checkpointer(Stats& stats) : stats_(stats) {}

  Stats& stats_;
};

class CopyCheckpointer final : public Checkpointer {
 public:
  explicit CopyCheckpointer(Stats& stats) : Checkpointer(stats) {}

  std::size_t save(const SearchState& st) override;
  void restore(std::size_t mark, SearchState& st) override;
  void forget(std::size_t mark) override;
  std::uint64_t live_bytes() const override { return live_bytes_; }

 private:
  std::vector<SearchState> snapshots_;
  std::uint64_t live_bytes_ = 0;  // copy_cost_bytes of every snapshot
};

class TrailCheckpointer final : public Checkpointer {
 public:
  explicit TrailCheckpointer(Stats& stats) : Checkpointer(stats) {}
  ~TrailCheckpointer() override;

  std::size_t save(const SearchState& st) override;
  void restore(std::size_t mark, SearchState& st) override;
  /// Forgetting the last live mark commits: both logs are cleared, since
  /// nothing is left that could rewind past them.
  void forget(std::size_t mark) override;
  rt::Trail* trail() override { return marks_.empty() ? nullptr : &trail_; }
  void log_cursor_advance(tr::Dir dir, int ip) override;
  std::uint64_t live_bytes() const override;

 private:
  struct CursorUndo {
    tr::Dir dir;
    int ip;
  };
  struct Mark {
    rt::Trail::Mark trail;
    std::size_t cursors;
  };

  void sync_stats();

  rt::Trail trail_;
  std::vector<CursorUndo> cursor_log_;
  std::uint64_t cursor_logged_total_ = 0;
  std::uint64_t synced_ = 0;
  std::vector<Mark> marks_;
};

[[nodiscard]] std::unique_ptr<Checkpointer> make_checkpointer(
    CheckpointMode mode, Stats& stats);

}  // namespace tango::core
