// The §2.2 backtracking DFS — the one task loop behind core::analyze,
// analyze_parallel and analyze_batch — and its work-stealing schedules.
// The branch tree of a nondeterministic trace decomposes into independent
// subtrees: each worker owns its own MachineState + rt::Trail and explores
// depth-first, but at a branching node it may *publish* the untaken
// siblings as one continuation task — a materialized snapshot() of the
// node state plus the remaining firing list — onto its own deque. Idle
// workers steal continuations (FIFO, so they take the shallowest =
// largest subtrees). Three schedules (docs/PARALLEL.md):
//   inline (jobs == 1, not deterministic; always for core::analyze) — no
//     threads, no publication: roots in initializer × start-state order,
//     one visited table, budgets over the cumulative counters, events
//     with worker -1 under run header "dfs".
//   relaxed (jobs > 1) — publication is adaptive (only while the pool is
//     hungry), the §4.2 visited table is shared through a sharded
//     concurrent table, the transition budget is a global atomic, and the
//     first Valid conclusion cancels the pool cooperatively. Verdicts are
//     stable up to budget races; counters depend on the schedule.
//   deterministic (--deterministic, any jobs) — branch ownership is a
//     fixed function of the tree (publication happens at every branching
//     node above a fixed depth), pruning and budgets are per-task, nothing
//     cancels early, and per-task results merge in lineage order: verdict,
//     solution and every counter are run-to-run identical for any --jobs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dfs.hpp"

namespace tango::core {

/// Analyzes a complete trace with options.jobs workers (0 = one per
/// hardware thread) under options.deterministic. Reaches the same verdict
/// as core::analyze on every trace: Valid iff some path consumes/produces
/// the whole trace, Invalid iff the full branch tree was refuted,
/// Inconclusive on budget/depth clips. With one job and relaxed
/// scheduling it is core::analyze, to the event. Otherwise counters are
/// exact (per-task Stats merged via operator+=), but RE/SA differ from the
/// inline run's: a stolen continuation starts at its node state, so its
/// first sibling needs no restore. Throws CompileError like core::analyze.
[[nodiscard]] DfsResult analyze_parallel(const est::Spec& spec,
                                         const tr::Trace& trace,
                                         const Options& options);

/// One corpus entry's outcome in batch mode. `error` is nonempty when the
/// analysis threw (e.g. the trace references a disabled ip); the verdict
/// is then Inconclusive and the other fields are meaningless. A throwing
/// or over-budget item never aborts the batch: every other entry still
/// carries its own result. The analysis is deterministic, so an item runs
/// once: a rerun would reach the same verdict or the same error.
struct BatchItemResult {
  DfsResult result;
  std::string error;
};

/// Inter-trace parallelism for `tango analyze --batch`: schedules whole
/// traces across options.jobs workers, each analyzed with core::analyze
/// (one trace is one unit of work; combine with analyze_parallel by hand
/// if a single giant trace dominates the corpus). Results are in input
/// order regardless of completion order. Each item runs once, under
/// FaultScope "item:<i>"; a std::exception it throws becomes its `error`.
/// `sinks`, when nonempty, must parallel `traces`: item i records its
/// event stream into sinks[i] (null entries record nothing), overriding
/// options.sink — a shared sink would interleave streams from concurrent
/// items.
[[nodiscard]] std::vector<BatchItemResult> analyze_batch(
    const est::Spec& spec, const std::vector<tr::Trace>& traces,
    const Options& options, const std::vector<obs::Sink*>& sinks = {});

namespace detail {

/// The search behind every entry point: `jobs` (>= 1) workers, inline
/// when jobs == 1 and not `deterministic`. options.jobs and
/// options.deterministic are only recorded in the run header.
[[nodiscard]] DfsResult search(const est::Spec& spec, const tr::Trace& trace,
                               const Options& options, int jobs,
                               bool deterministic);

/// Bytes the memory budget charges for one search-stack frame, besides the
/// firings it still holds (docs/ROBUSTNESS.md).
[[nodiscard]] std::uint64_t frame_charge_bytes();

}  // namespace detail

}  // namespace tango::core
