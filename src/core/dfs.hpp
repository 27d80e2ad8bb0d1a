// Backtracking depth-first trace analysis for static (complete) traces —
// the paper's §2.2. A trace is valid iff some path of transitions from an
// initial state consumes every input and produces every output recorded in
// the trace (§2: "state space search ... a path from the root to a leaf").
#pragma once

#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/search_state.hpp"
#include "core/stats.hpp"
#include "core/verdict.hpp"
#include "trace/event.hpp"

namespace tango::core {

struct DfsResult {
  Verdict verdict = Verdict::Inconclusive;
  /// Which resource contract produced an Inconclusive verdict; None on
  /// every other verdict. Mirrored into stats.reason so it survives
  /// Stats-level merges and shows in Stats::to_json.
  InconclusiveReason reason = InconclusiveReason::None;
  Stats stats;
  /// For a valid trace: the transition names of one solution path, root to
  /// leaf (first entry is the initialize clause).
  std::vector<std::string> solution;
  /// Diagnostic: the first path-veto reason encountered (useful on invalid
  /// traces).
  std::string note;
};

/// Analyzes a complete trace against the specification. Throws CompileError
/// if the trace references disabled ips or carries inputs at unobservable
/// ips; runtime faults inside specification code kill only the offending
/// path (recorded in `note`).
[[nodiscard]] DfsResult analyze(const est::Spec& spec, const tr::Trace& trace,
                                const Options& options);

/// Convenience: parse the trace text, then analyze.
[[nodiscard]] DfsResult analyze_text(const est::Spec& spec,
                                     std::string_view trace_text,
                                     const Options& options);

/// Validates trace/option consistency: no inputs at disabled or
/// unobservable ips. Throws CompileError at the earliest offending input;
/// O(ips), not O(events).
void validate_trace_against_options(const est::Spec& spec,
                                    const tr::Trace& trace,
                                    const ResolvedOptions& ro);

/// The same check for one event; the on-line analyzer runs it on each
/// event as it arrives.
void validate_event_against_options(const est::Spec& spec,
                                    const tr::TraceEvent& e,
                                    const ResolvedOptions& ro);

}  // namespace tango::core
