// Search counters matching the columns of the paper's Figures 3 and 4:
// TE (transitions executed), GE (generates), RE (restores/backtracks),
// SA (state saves), plus CPU time and fanout, which §4.2 discusses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/verdict.hpp"

namespace tango::core {

/// Wall-clock and peak-RSS movement attributed to one phase of an analysis
/// (parse / static-analysis / search). Additive so Stats::operator+= stays
/// associative and commutative across worker merge orders; rss_delta_kb is
/// how far ru_maxrss moved while the phase ran (0 when the peak predates
/// the phase), a cheap allocation proxy that needs no allocator hooks.
struct PhaseMetrics {
  double wall_seconds = 0.0;
  std::int64_t rss_delta_kb = 0;

  PhaseMetrics& operator+=(const PhaseMetrics& other) {
    wall_seconds += other.wall_seconds;
    rss_delta_kb += other.rss_delta_kb;
    return *this;
  }
};

struct Stats {
  std::uint64_t transitions_executed = 0;  // TE
  std::uint64_t generates = 0;             // GE
  std::uint64_t restores = 0;              // RE
  std::uint64_t saves = 0;                 // SA
  std::uint64_t pruned_by_hash = 0;        // state-hashing ablation
  /// Visited-state hashes dropped to honour --visited-max (0 when the
  /// table is unbounded). Eviction weakens pruning, never soundness.
  std::uint64_t evictions = 0;
  /// Frontier continuations published to the work-stealing pool and how
  /// many of them were executed by a worker other than their publisher
  /// (0 for inline DFS runs and MDFS).
  std::uint64_t tasks_published = 0;
  std::uint64_t tasks_stolen = 0;
  std::uint64_t fanout_sum = 0;            // sum of firing-list sizes
  std::uint64_t fanout_samples = 0;
  /// Always 0: no engine skips candidates on static facts. Kept because
  /// perfbench's own walk of the search reads it; the benchmark change
  /// that retires that walk drops the field and its JSON key.
  std::uint64_t static_skips = 0;
  /// Undo entries pushed by trail-mode checkpointing (0 in copy mode;
  /// nothing is logged while no checkpoint mark is live). Excluded from
  /// cross-mode differential comparisons, unlike TE..SA.
  std::uint64_t trail_entries = 0;
  /// Approximate bytes deep-copied by save()/snapshot() (shallow estimate:
  /// top-level containers, not nested record/array payloads).
  std::uint64_t checkpoint_bytes = 0;
  int max_depth = 0;
  /// Why the analysis went Inconclusive (None otherwise). Rides on Stats
  /// so parallel Outcome merges carry it: operator+= keeps the first
  /// non-None reason in merge order, which in --deterministic mode is
  /// lineage order and therefore reproducible.
  InconclusiveReason reason = InconclusiveReason::None;
  double cpu_seconds = 0.0;
  /// Per-phase wall/RSS attribution: trace/spec parsing, option resolution
  /// (the `static` phase), and the search proper.
  PhaseMetrics phase_parse;
  PhaseMetrics phase_static;
  PhaseMetrics phase_search;

  [[nodiscard]] double average_fanout() const {
    return fanout_samples == 0
               ? 0.0
               : static_cast<double>(fanout_sum) /
                     static_cast<double>(fanout_samples);
  }
  [[nodiscard]] double transitions_per_second() const {
    return cpu_seconds <= 0.0
               ? 0.0
               : static_cast<double>(transitions_executed) / cpu_seconds;
  }

  /// Aggregation across analyses (differential/fuzz campaigns): counters
  /// and cpu time add, max_depth takes the maximum.
  Stats& operator+=(const Stats& other);

  /// One-line summary: "TE=… GE=… RE=… SA=… cpu=…s".
  [[nodiscard]] std::string summary() const;

  /// One-line JSON object with the Figure 3/4 counter names
  /// ({"te":…,"ge":…,"re":…,"sa":…,…}), for `tango fuzz --stats` output
  /// comparable with the paper's tables. Includes cpu_seconds and the
  /// per-phase wall/RSS block.
  [[nodiscard]] std::string to_json() const;

  /// The counters only — no cpu_seconds, no phases. This is what `verdict`
  /// events record: a stream from a deterministic run must be byte-stable,
  /// and timing never is.
  [[nodiscard]] std::string to_json_counters() const;

  /// Consistency checks over the counters; returns one message per
  /// violated invariant (empty = consistent).
  ///
  /// The default set holds for every engine by construction:
  ///   - fanout_samples == generates (generate() bumps both, exactly once)
  ///   - pruned_by_hash <= transitions_executed (each prune follows one
  ///     successful apply of the pruned state)
  ///
  /// `strict` adds the paper-model invariants, which hold for plain DFS
  /// runs but have documented exemptions (see docs/OBSERVABILITY.md):
  ///   - transitions_executed >= generates — violated by MDFS
  ///     re-generation (§3.1.1 re-generates parked nodes without firing)
  ///     and by --initial-state-search (one initializer apply seeds a
  ///     generate per start state)
  ///   - evictions <= transitions_executed
  [[nodiscard]] std::vector<std::string> invariant_violations(
      bool strict = false) const;
};

/// Scoped CPU-time measurement (process CPU clock, like the paper's CPUT).
class CpuTimer {
 public:
  CpuTimer();
  /// Seconds of process CPU time since construction.
  [[nodiscard]] double elapsed() const;

 private:
  std::int64_t start_ns_;
};

/// RAII phase measurement: on destruction ADDS the elapsed monotonic wall
/// time and the ru_maxrss movement to `target`, so one PhaseMetrics can
/// accumulate across repeated scopes (the on-line analyzer's rounds).
class PhaseTimer {
 public:
  explicit PhaseTimer(PhaseMetrics& target);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  PhaseMetrics& target_;
  std::int64_t start_ns_;
  std::int64_t start_rss_kb_;
};

}  // namespace tango::core
