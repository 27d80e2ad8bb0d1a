// The memory budget charges what the search holds at the check
// (docs/ROBUSTNESS.md), not a cumulative ledger. The static DFS holds live
// undo entries and snapshots plus live stack frames; a long linear LAPD
// trace never saves a checkpoint, so its whole charge is its stack. The
// on-line MDFS holds its stack slots plus the nodes that still own a
// state; on the same trace every node but the frontier hands its state to
// its child, so its charge is its stack slots and one or two states. In
// both engines a --max-memory just above the deepest stack's bytes must
// let the run finish Valid, and one just below must stop it
// Inconclusive(memory).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/dfs.hpp"
#include "core/mdfs.hpp"
#include "core/parallel_dfs.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"

namespace tango::core {
namespace {

/// Covers the top frame's one remaining firing and its parameters.
constexpr std::uint64_t kSlack = 1024;
/// Covers the few states MDFS's frontier nodes still own (under 1 KiB
/// each on LAPD): the top of the stack and the parked PG nodes.
constexpr std::uint64_t kOnlineSlack = 4096;

DfsResult run(const est::Spec& spec, const tr::Trace& trace,
              Options options, int mode) {
  switch (mode) {
    case 1:  // relaxed pool: the pooled charge
      options.jobs = 2;
      return analyze_parallel(spec, trace, options);
    case 2:  // deterministic: the per-task charge
      options.jobs = 2;
      options.deterministic = true;
      return analyze_parallel(spec, trace, options);
    default:
      return analyze(spec, trace, options);
  }
}

TEST(MemoryBudget, LinearTraceIsChargedItsLiveFrames) {
  const est::Spec spec = est::compile_spec(specs::lapd());
  const tr::Trace trace = sim::lapd_trace(spec, 2000);

  const DfsResult unbounded = analyze(spec, trace, Options::full());
  ASSERT_EQ(unbounded.verdict, Verdict::Valid);
  ASSERT_EQ(unbounded.stats.saves, 0u);  // linear: no checkpoint held
  const std::uint64_t frames =
      static_cast<std::uint64_t>(unbounded.stats.max_depth) *
      detail::frame_charge_bytes();
  ASSERT_GT(frames, 8 * kSlack);

  for (const int mode : {0, 1, 2}) {
    SCOPED_TRACE(mode);
    Options options = Options::full();
    options.max_memory = frames + kSlack;
    const DfsResult within = run(spec, trace, options, mode);
    EXPECT_EQ(within.verdict, Verdict::Valid);
    EXPECT_EQ(within.solution, unbounded.solution);

    options.max_memory = frames - kSlack;
    const DfsResult over = run(spec, trace, options, mode);
    EXPECT_EQ(over.verdict, Verdict::Inconclusive);
    EXPECT_EQ(over.reason, InconclusiveReason::Memory);
  }
}

TEST(MemoryBudget, MdfsLinearTraceIsChargedItsLiveNodes) {
  const est::Spec spec = est::compile_spec(specs::lapd());
  const tr::Trace trace = sim::lapd_trace(spec, 2000);

  // Feeds the trace in 3000-event chunks, running the analyzer after each
  // chunk, then eof.
  const auto online = [&](std::uint64_t max_memory) {
    OnlineConfig config;
    config.options = Options::full();
    config.options.max_memory = max_memory;
    tr::MemoryFeed feed(spec);
    OnlineAnalyzer analyzer(spec, feed, config);
    constexpr std::size_t kChunk = 3000;
    const std::vector<tr::TraceEvent>& events = trace.events();
    for (std::size_t i = 0; i < events.size(); i += kChunk) {
      for (std::size_t j = i; j < std::min(events.size(), i + kChunk); ++j) {
        feed.push(events[j]);
      }
      analyzer.run();
    }
    feed.push_eof();
    analyzer.run();
    return std::pair{analyzer.status(), analyzer.stats()};
  };

  const auto [status, stats] = online(0);
  ASSERT_EQ(status, OnlineStatus::Valid);
  const std::uint64_t slots = static_cast<std::uint64_t>(stats.max_depth) *
                              OnlineAnalyzer::slot_charge_bytes();
  ASSERT_GT(slots, 8 * kOnlineSlack);

  const auto [within, within_stats] = online(slots + kOnlineSlack);
  EXPECT_EQ(within, OnlineStatus::Valid);
  EXPECT_EQ(within_stats.transitions_executed, stats.transitions_executed);

  const auto [over, over_stats] = online(slots - kOnlineSlack);
  EXPECT_EQ(over, OnlineStatus::Inconclusive);
  EXPECT_EQ(over_stats.reason, InconclusiveReason::Memory);
}

}  // namespace
}  // namespace tango::core
