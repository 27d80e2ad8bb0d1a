// Differential conformance fuzzer. Per iteration it (1) synthesizes a
// random well-typed environment script for a builtin specification,
// (2) records a known-valid trace by running the simulator in
// implementation-generation mode (§4.2's trace-production procedure),
// (3) derives invalid/partial variants with the sim::mutate operators, and
// (4) analyzes every trace under the engines × order-presets matrix,
// asserting the oracle invariants:
//
//   O1  a simulator-recorded trace is Valid — under every preset when
//       inputs are recorded at consumption, under NR only when recorded at
//       arrival (§2.4.2: order options involving inputs are unsound when
//       queues sit between the observation point and the machine);
//   O2  a trace whose last output parameter was edited is Invalid under
//       every preset (the paper's §4.2 invalid-trace procedure);
//   O3  within one preset, every engine reaches the same verdict
//       (Inconclusive budget exhaustion excluded).
//
// Failures are shrunk by binary-search truncation to a minimal failing
// prefix and written as reproducer bundles. Deliberately excluded from the
// checks, per the paper's own soundness caveats: 64-bit hash collisions
// (§4.2) and prune_on_pgav piecewise validity (§3.1.2 footnote) — the
// latter is simply never enabled here.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/generator.hpp"

namespace tango::fuzz {

struct FuzzConfig {
  std::uint32_t seed = 1;
  int iterations = 100;
  /// Builtin spec names; empty = every builtin with a nonempty stimulus
  /// alphabet.
  std::vector<std::string> specs;
  std::vector<Engine> engines = {Engine::Dfs, Engine::HashDfs, Engine::Mdfs};
  /// MDFS dynamic-source chunk size (events delivered per search round).
  std::size_t chunk = 3;
  /// Concurrent fuzz iterations (1 = sequential, 0 = one per hardware
  /// thread). Iterations are independent (each derives its own seed), and
  /// per-iteration results merge in iteration order, so every verdict and
  /// counter in the report is identical for any jobs value (only measured
  /// cpu time varies).
  int jobs = 1;
  /// Per-analysis search budget; exhaustion yields Inconclusive, which the
  /// agreement relation skips.
  std::uint64_t max_transitions = 200'000;
  /// Per-analysis wall-clock deadline in milliseconds (0 = none). A cell
  /// that trips it is Inconclusive(reason=deadline), which the agreement
  /// relation skips — so a slow machine degrades coverage, not soundness.
  std::uint64_t deadline_ms = 0;
  /// Save/restore implementation the DFS engines run under; campaigns with
  /// both modes and the same seed must report identical verdicts and
  /// identical TE/GE/RE/SA totals (the copy-vs-trail differential oracle).
  core::CheckpointMode checkpoint = core::CheckpointMode::Trail;
  /// Reject specs with error-level lint findings before fuzzing them (an
  /// unguarded non-progress cycle would make every DFS iteration diverge);
  /// specs with warnings are fuzzed but labelled in the log.
  bool lint_specs = true;
  std::uint64_t sim_max_steps = 160;
  GenConfig generator;
  /// Directory for reproducer bundles; empty disables writing.
  std::string out_dir;
  /// Directory for per-cell search-event streams (docs/OBSERVABILITY.md):
  /// every matrix cell writes `<spec>-seed<N>-<variant>-<order>-<engine>
  /// .jsonl` plus one `.tr` sidecar per variant, replayable with
  /// `tango events replay`. Empty disables recording. Shrink probes are
  /// never recorded.
  std::string events_dir;
  bool verbose = false;
};

/// One confirmed failure, shrunk and ready to replay.
struct Disagreement {
  std::string spec;
  std::uint32_t iteration_seed = 0;
  int iteration = 0;
  std::string variant;     // simulated | mutate-last-output | drop-event | ...
  std::string detail;      // the invariant that broke, with per-cell verdicts
  std::string trace_text;  // shrunk trace, trace-file syntax
  std::size_t original_events = 0;
  std::size_t shrunk_events = 0;
  std::string bundle_path;  // file written under out_dir ("" when disabled)
};

struct EngineTotals {
  std::string engine;
  std::uint64_t analyses = 0;
  core::Stats stats;
};

struct FuzzReport {
  int iterations = 0;
  std::uint64_t traces_analyzed = 0;  // trace variants put through the matrix
  std::uint64_t verdicts = 0;         // matrix cells evaluated
  std::uint64_t oracle_checks = 0;    // O1/O2 expectations evaluated
  std::vector<EngineTotals> totals;   // per-engine TE/GE/RE/SA aggregates
  std::vector<Disagreement> disagreements;

  [[nodiscard]] bool clean() const { return disagreements.empty(); }
  /// Figure-3-comparable per-engine totals plus run counters, as JSON.
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string summary() const;
};

using FailPredicate = std::function<bool(const tr::Trace&)>;

/// Binary-search truncation: the shortest prefix (eof kept) on which
/// `fails` still holds. Assumes monotone failure, as shrinkers do; when the
/// candidate prefix does not actually fail, returns the full trace.
[[nodiscard]] tr::Trace shrink_to_minimal_failing_prefix(
    const tr::Trace& trace, const FailPredicate& fails);

/// Builtin spec names with a nonempty stimulus alphabet (= fuzzable).
[[nodiscard]] std::vector<std::string> fuzzable_builtin_specs();

/// Runs the campaign. Fully deterministic in `config` (iteration i of a
/// run with seed s replays as seed s + i * 0x9e3779b9 with one iteration).
/// Progress/diagnostics go to `log` when non-null.
[[nodiscard]] FuzzReport run_fuzz(const FuzzConfig& config,
                                  std::ostream* log = nullptr);

}  // namespace tango::fuzz
