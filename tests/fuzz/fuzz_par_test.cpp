// Same-seed reproducibility of a fuzz campaign that includes the
// work-stealing engine. Its cell runs the deterministic schedule, so the
// campaign's per-engine search counters are a function of the seed, like
// the sequential engines' (only cpu time and which tasks happened to be
// stolen may differ between runs).
#include <gtest/gtest.h>

#include "fuzz/fuzz.hpp"

namespace tango::fuzz {
namespace {

TEST(FuzzPar, CampaignTotalsAreSeedDeterministic) {
  FuzzConfig config;
  config.seed = 2;
  config.iterations = 6;
  config.specs = {"tp0"};
  config.engines = {Engine::Dfs, Engine::ParDfs};
  const FuzzReport a = run_fuzz(config);
  const FuzzReport b = run_fuzz(config);
  EXPECT_TRUE(a.clean());
  EXPECT_EQ(a.verdicts, b.verdicts);
  ASSERT_EQ(a.totals.size(), b.totals.size());
  for (std::size_t i = 0; i < a.totals.size(); ++i) {
    const core::Stats& x = a.totals[i].stats;
    const core::Stats& y = b.totals[i].stats;
    SCOPED_TRACE(a.totals[i].engine);
    EXPECT_GT(x.transitions_executed, 0u);
    EXPECT_EQ(a.totals[i].analyses, b.totals[i].analyses);
    EXPECT_EQ(x.transitions_executed, y.transitions_executed);
    EXPECT_EQ(x.generates, y.generates);
    EXPECT_EQ(x.restores, y.restores);
    EXPECT_EQ(x.saves, y.saves);
    EXPECT_EQ(x.tasks_published, y.tasks_published);
    EXPECT_EQ(x.fanout_sum, y.fanout_sum);
    EXPECT_EQ(x.max_depth, y.max_depth);
  }
}

}  // namespace
}  // namespace tango::fuzz
