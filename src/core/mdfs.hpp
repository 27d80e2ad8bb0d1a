// Multi-threaded depth-first search (paper §3): on-line trace analysis over
// a dynamic (growing) trace. A node whose transition list was cut short by
// an exhausted-but-still-growing input queue is *partially generated* (PG)
// and is saved for re-generation when new input arrives (§3.1.1). A PG node
// that has consumed every input and verified every output observed so far
// is PGAV — the trace is "valid so far" (§3.1.2). A node that has consumed
// the whole prefix with nothing left to wait on is parked as PGAV too, so
// that the eof marker can still conclude `valid` from it. With dynamic node
// reordering (§3.1.3, the default), newly re-enabled PG nodes are searched
// immediately, putting the rest of the tree on hold.
//
// Memory follows the search frontier. A node keeps a whole state only
// while §3.1.1 can still use it: while it has untaken firings, may be
// parked, or may conclude `valid` when popped. A node that hands out its
// last firing with none of these left fires on its own state (under a
// checkpoint mark that undoes a failed firing) and becomes the child,
// leaving a tombstone that holds only what its backtrack event needs.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/dfs.hpp"
#include "core/generator.hpp"
#include "core/governor.hpp"
#include "core/options.hpp"
#include "core/stats.hpp"
#include "core/verdict.hpp"
#include "trace/dynamic_source.hpp"

namespace tango::core {

enum class OnlineStatus {
  Searching,      // active nodes remain; no assessment yet
  ValidSoFar,     // a PGAV node exists
  LikelyInvalid,  // quiescent, only non-AV PG nodes remain (§3.1.2)
  Valid,          // conclusive (requires the eof marker)
  Invalid,        // conclusive: tree exhausted, no PG nodes remain
  Inconclusive,   // search budget exhausted
};

[[nodiscard]] constexpr std::string_view to_string(OnlineStatus s) {
  switch (s) {
    case OnlineStatus::Searching: return "searching";
    case OnlineStatus::ValidSoFar: return "valid so far";
    case OnlineStatus::LikelyInvalid: return "likely invalid";
    case OnlineStatus::Valid: return "valid";
    case OnlineStatus::Invalid: return "invalid";
    case OnlineStatus::Inconclusive: return "inconclusive";
  }
  return "?";
}

struct OnlineConfig {
  Options options;
  /// Search steps between polls of the trace source while the tree is busy.
  std::uint64_t poll_every = 64;
};

class OnlineAnalyzer {
 public:
  OnlineAnalyzer(const est::Spec& spec, tr::TraceSource& source,
                 OnlineConfig config);
  ~OnlineAnalyzer();
  OnlineAnalyzer(const OnlineAnalyzer&) = delete;
  OnlineAnalyzer& operator=(const OnlineAnalyzer&) = delete;

  /// Performs up to `steps` search steps, polling the source periodically.
  /// Returns the status after the round; conclusive statuses are sticky.
  OnlineStatus step_round(std::uint64_t steps);

  /// Pumps until conclusive, or until `idle_rounds` consecutive rounds make
  /// no progress and deliver no new trace data.
  OnlineStatus run(std::uint64_t steps_per_round = 4096, int idle_rounds = 2);

  /// Current assessment without searching.
  [[nodiscard]] OnlineStatus status() const;
  [[nodiscard]] bool conclusive() const;

  /// Reports an assessment edge: true (and fills `now`) when the status
  /// differs from the one this method last reported. The first call
  /// reports the current status unless it is still Searching — hosts
  /// forward these edges (the server as interim `verdict` frames, `tango
  /// online --verbose` as status lines).
  [[nodiscard]] bool take_status_change(OnlineStatus& now) {
    const OnlineStatus s = status();
    if (s == last_reported_) return false;
    last_reported_ = s;
    now = s;
    return true;
  }

  /// Concludes Inconclusive with `reason` unless already conclusive — the
  /// cancellation path for externally driven sessions (client `cancel`
  /// frames, server drain on SIGTERM). Call between step_round rounds; a
  /// sink gets the usual `verdict` event.
  void abort(InconclusiveReason reason);

  /// Emits a `verdict` event for the current status if the stream has none
  /// yet — an on-line run can end quiescent ("valid so far", "likely
  /// invalid") without ever concluding. No-op without a sink; idempotent.
  void finalize_stream();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Bytes the analyzer holds for the search now, what --max-memory
  /// charges: one stack slot per entry plus, per node that still owns a
  /// state, the node and its state's top-level containers.
  [[nodiscard]] std::uint64_t held_bytes() const;
  /// What one stack entry is charged, a tombstone's whole charge.
  [[nodiscard]] static std::uint64_t slot_charge_bytes();
  [[nodiscard]] const tr::Trace& trace() const { return trace_; }
  /// Number of PG nodes currently parked (the §3.2.1 memory concern).
  [[nodiscard]] std::size_t pg_count() const;

 private:
  struct MNode;
  /// One stack entry. `node` is null once the node has become its last
  /// child: the tombstone keeps only what its backtrack event names.
  struct Slot {
    std::uint64_t origin = 0;
    int depth = 0;
    std::unique_ptr<MNode> node;
  };

  bool poll_source();
  void push(std::unique_ptr<MNode> node);
  /// Counts `node` in held_bytes() from now on, or no longer.
  void hold(MNode& node);
  void drop(std::unique_ptr<MNode> node);
  /// A popped node with a state: concludes, parks, re-generates or drops.
  void retire(std::unique_ptr<MNode> node);
  void compute_gen(MNode& node);  // generate() + trace-extent snapshot
  void reactivate_pg(bool all);
  void regenerate(std::unique_ptr<MNode> node);
  void seed_roots();
  /// Applies initializer `ii` and appends one root per §2.4.1 start state
  /// to `roots`; an initializer blocked on an output the trace has not
  /// recorded yet goes to `pending`, to be retried when events arrive.
  void add_roots(std::size_t ii, std::vector<std::size_t>& pending,
                 std::vector<std::unique_ptr<MNode>>& roots);
  bool do_step();  // one firing attempt / node service; false if none left
  [[nodiscard]] bool any_pgav() const;
  void prune_non_pgav();
  /// Records the conclusive status (sticky) and, with a sink attached,
  /// emits the `verdict` event naming `witness` as the completing node.
  /// `reason` names the exhausted resource for Inconclusive conclusions.
  void conclude(OnlineStatus status, std::uint64_t witness,
                InconclusiveReason reason = InconclusiveReason::None);

  const est::Spec& spec_;
  tr::TraceSource& source_;
  OnlineConfig config_;
  PhaseMetrics phase_static_;  // declared before ro_: resolve_timed fills it
  ResolvedOptions ro_;
  rt::Interp interp_;
  tr::Trace trace_;
  Stats stats_;
  ResourceGovernor governor_;
  /// A branching or parkable node gives each child a snapshot() copy, since
  /// PG parking outlives any stack order. A node with no such use left runs
  /// its last firing on its own state under a save() mark, forgotten once
  /// the firing ends.
  std::unique_ptr<Checkpointer> ckpt_;

  obs::Sink* sink_ = nullptr;

  std::vector<Slot> stack_;
  std::deque<std::unique_ptr<MNode>> pg_;
  std::uint64_t node_bytes_ = 0;  // charge of the nodes on stack_ and pg_
  std::vector<std::size_t> pending_roots_;  // initializers blocked on output
  std::size_t validated_events_ = 0;  // prefix checked against options
  std::uint64_t steps_since_poll_ = 0;
  bool seeded_ = false;
  bool verdict_emitted_ = false;
  bool concluded_ = false;
  OnlineStatus final_status_ = OnlineStatus::Searching;
  OnlineStatus last_reported_ = OnlineStatus::Searching;  // take_status_change
};

}  // namespace tango::core
