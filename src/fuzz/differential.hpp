// Differential execution of one trace under the analyzer engine matrix:
// off-line DFS (§2.2), on-line MDFS fed through a chunked dynamic source
// (§3), and hash-pruned DFS (§4.2's state-hashing ablation), each crossed
// with the four relative-order presets (NR/IO/IP/FULL, §2.4.2). The paper's
// conformance claim is that every cell of a column agrees — the engines are
// different search strategies over the same validity relation.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/dfs.hpp"
#include "core/mdfs.hpp"
#include "core/options.hpp"
#include "core/stats.hpp"
#include "core/verdict.hpp"
#include "trace/event.hpp"

namespace tango::fuzz {

/// ParDfs is the work-stealing parallel engine (relaxed mode, shared
/// visited table) — opt-in via --engines=...,par because its counters are
/// schedule-dependent, which would break same-seed campaign comparisons.
enum class Engine { Dfs, HashDfs, Mdfs, ParDfs };

[[nodiscard]] std::string_view to_string(Engine e);

/// Parses a comma-separated engine list ("dfs,hash,mdfs"; "hashdfs" and
/// "hash-dfs" are accepted for the ablation, "par"/"pardfs"/"parallel"
/// for the work-stealing engine). Throws CompileError on an unknown name;
/// returns the three sequential engines for an empty string (ParDfs is
/// never implied).
[[nodiscard]] std::vector<Engine> parse_engines(std::string_view csv);

/// The four order-checking presets of the paper's Figures 3 and 4, named
/// as the event streams and reproducer bundles name them.
inline constexpr std::array<const char*, 4> kOrderPresets = {"NR", "IO", "IP",
                                                             "FULL"};

struct EngineRun {
  Engine engine = Engine::Dfs;
  std::string order;  // preset name
  core::Verdict verdict = core::Verdict::Inconclusive;
  core::Stats stats;
  std::string note;
};

/// Analyzes `trace` with one engine. `base` supplies the order flags and
/// budgets; the engine-defining flags (hash_states, on-line delivery) are
/// set here. For MDFS the trace is replayed through a MemoryFeed in chunks
/// of `chunk` events with a search round between chunks, then eof — the
/// closest off-line reproduction of a growing trace file.
[[nodiscard]] EngineRun run_engine(const est::Spec& spec,
                                   const tr::Trace& trace,
                                   const core::Options& base, Engine engine,
                                   std::size_t chunk);

/// One order-preset column of the matrix: every engine's verdict.
struct MatrixColumn {
  std::string order;
  std::vector<EngineRun> runs;
  /// True when all non-Inconclusive verdicts in the column coincide
  /// (Inconclusive cells are budget artifacts, not verdicts — §2.4's
  /// max_transitions — and are excluded from the agreement relation).
  bool agreed = true;
  std::string disagreement;  // human-readable cell list when !agreed
};

struct MatrixResult {
  std::vector<MatrixColumn> columns;
  [[nodiscard]] bool all_agreed() const;
  /// Verdict of the first non-Inconclusive DFS cell for `order`, or
  /// Inconclusive when the whole column ran out of budget.
  [[nodiscard]] core::Verdict column_verdict(std::string_view order) const;
};

/// Search-event recording for one matrix run (docs/OBSERVABILITY.md).
/// Each cell writes `<dir>/<stem>-<order>-<engine>.jsonl`, and the
/// analyzed trace is written once as `<dir>/<stem>.tr` so `tango events
/// replay` can re-execute every stream from its run header's trace_ref.
/// `dir` must already exist.
struct EventsCapture {
  std::string dir;
  std::string stem;
  std::string spec_ref;  // e.g. "builtin:abp"
};

/// Runs the full engines × order-presets matrix. `base` carries shared
/// budgets (max_transitions etc.); its order flags are overwritten by each
/// preset. With a non-null `capture`, every cell records its event stream.
[[nodiscard]] MatrixResult run_matrix(const est::Spec& spec,
                                      const tr::Trace& trace,
                                      const std::vector<Engine>& engines,
                                      const core::Options& base,
                                      std::size_t chunk,
                                      const EventsCapture* capture = nullptr);

/// Maps an on-line status to the batch verdict space (ValidSoFar and
/// LikelyInvalid pass through; with eof delivered they indicate an
/// exhausted idle loop, which the caller treats as Inconclusive).
[[nodiscard]] core::Verdict to_verdict(core::OnlineStatus s);

}  // namespace tango::fuzz
