// The static DFS memory budget charges what the search holds at the check
// (docs/ROBUSTNESS.md): live undo entries and snapshots plus live stack
// frames, not a cumulative ledger synced only on backtrack. A long linear
// LAPD trace never saves a checkpoint, so its whole charge is its stack:
// a --max-memory just above the deepest stack's frame bytes must let it
// finish Valid, and one just below must stop it Inconclusive(memory).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/dfs.hpp"
#include "core/parallel_dfs.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"

namespace tango::core {
namespace {

/// Covers the top frame's one remaining firing and its parameters.
constexpr std::uint64_t kSlack = 1024;

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

}  // namespace
}  // namespace tango::core
