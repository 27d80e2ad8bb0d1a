// Copy-vs-trail checkpointing differential: the deep-copy implementation
// of the §2.2 save/restore primitives is the oracle for the undo-log
// (trail) implementation. Over every golden trace under traces/, each
// engine × order-preset cell must produce the SAME verdict and the SAME
// Figure-3 counters (TE/GE/RE/SA, plus pruning/fanout/depth) in both
// modes — the checkpointing layer may change how restore is implemented,
// never what the search explores. A short same-seed fuzz campaign widens
// the net beyond the goldens (TANGO_FUZZ_ITERATIONS knob).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dfs.hpp"
#include "estelle/spec.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/fuzz.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

#ifndef TANGO_FUZZ_ITERATIONS
#define TANGO_FUZZ_ITERATIONS 50
#endif

namespace tango::fuzz {
namespace {

struct Golden {
  const char* trace_file;
  const char* spec;
  bool initial_state_search;
};

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> g = {
      {"abp_valid.tr", "abp", false},   {"abp_invalid.tr", "abp", false},
      {"ack_paper.tr", "ack", false},   {"inres_valid.tr", "inres", false},
      {"tp0_valid.tr", "tp0", false},   {"lapd_midstream.tr", "lapd", true},
  };
  return g;
}

MatrixResult matrix_for(const Golden& golden, core::CheckpointMode mode) {
  est::Spec spec = est::compile_spec(specs::builtin_spec(golden.spec));
  std::ifstream file(std::string(TANGO_TRACES_DIR) + "/" + golden.trace_file);
  EXPECT_TRUE(file.good()) << golden.trace_file;
  std::stringstream text;
  text << file.rdbuf();
  tr::Trace trace = tr::parse_trace(spec, text.str());

  core::Options base = core::Options::none();
  base.max_transitions = 200'000;
  base.initial_state_search = golden.initial_state_search;
  base.checkpoint = mode;
  return run_matrix(spec, trace,
                    {Engine::Dfs, Engine::HashDfs, Engine::Mdfs}, base,
                    /*chunk=*/3);
}

void expect_identical_search(const EngineRun& copy, const EngineRun& trail,
                             const std::string& context) {
  EXPECT_EQ(copy.verdict, trail.verdict) << context;
  EXPECT_EQ(copy.stats.transitions_executed,
            trail.stats.transitions_executed) << context;  // TE
  EXPECT_EQ(copy.stats.generates, trail.stats.generates) << context;  // GE
  EXPECT_EQ(copy.stats.restores, trail.stats.restores) << context;    // RE
  EXPECT_EQ(copy.stats.saves, trail.stats.saves) << context;          // SA
  EXPECT_EQ(copy.stats.pruned_by_hash, trail.stats.pruned_by_hash)
      << context;
  EXPECT_EQ(copy.stats.fanout_sum, trail.stats.fanout_sum) << context;
  EXPECT_EQ(copy.stats.max_depth, trail.stats.max_depth) << context;
  // The modes differ only in the cost ledger: copy mode never logs trail
  // entries, trail mode skips the per-branch deep copies.
  EXPECT_EQ(copy.stats.trail_entries, 0u) << context;
}

TEST(CheckpointDiff, GoldenTracesAgreeCellByCell) {
  for (const Golden& golden : goldens()) {
    const MatrixResult copy = matrix_for(golden, core::CheckpointMode::Copy);
    const MatrixResult trail =
        matrix_for(golden, core::CheckpointMode::Trail);
    ASSERT_EQ(copy.columns.size(), trail.columns.size());
    for (std::size_t c = 0; c < copy.columns.size(); ++c) {
      ASSERT_EQ(copy.columns[c].runs.size(), trail.columns[c].runs.size());
      for (std::size_t r = 0; r < copy.columns[c].runs.size(); ++r) {
        const EngineRun& cr = copy.columns[c].runs[r];
        const EngineRun& tr_ = trail.columns[c].runs[r];
        ASSERT_EQ(cr.engine, tr_.engine);
        expect_identical_search(
            cr, tr_,
            std::string(golden.trace_file) + " order=" +
                copy.columns[c].order + " engine=" +
                std::string(to_string(cr.engine)));
      }
    }
  }
}

TEST(CheckpointDiff, TrailModeActuallySkipsDeepCopies) {
  // Sanity that the two modes take different code paths on a branching
  // workload: copy mode banks checkpoint bytes per save, trail mode logs
  // undo entries instead.
  const Golden tp0{"tp0_valid.tr", "tp0", false};
  const MatrixResult copy = matrix_for(tp0, core::CheckpointMode::Copy);
  const MatrixResult trail = matrix_for(tp0, core::CheckpointMode::Trail);
  std::uint64_t copy_bytes = 0, copy_trail_entries = 0;
  std::uint64_t trail_entries = 0;
  for (const MatrixColumn& col : copy.columns) {
    for (const EngineRun& run : col.runs) {
      copy_bytes += run.stats.checkpoint_bytes;
      copy_trail_entries += run.stats.trail_entries;
    }
  }
  for (const MatrixColumn& col : trail.columns) {
    for (const EngineRun& run : col.runs) {
      if (run.engine != Engine::Mdfs) {
        // DFS engines in trail mode deep-copy nothing.
        EXPECT_EQ(run.stats.checkpoint_bytes, 0u);
      }
      trail_entries += run.stats.trail_entries;
    }
  }
  EXPECT_GT(copy_bytes, 0u);
  EXPECT_EQ(copy_trail_entries, 0u);
  EXPECT_GT(trail_entries, 0u);
}

// A node whose first alternative runs a long tail and fails at its end,
// and whose last alternative runs the same tail to a valid conclusion.
// Trail mode forgets the node's mark when it takes the last alternative,
// so that second tail runs with no live mark and logs nothing.
constexpr const char* kBranchThenTail = R"(
specification tail_spec;
channel CA(Env, Sys);
  by Env: go; tick; stop;
  by Sys: done(n: integer);
module M systemprocess;
  ip A: CA(Sys);
end;
body MB for M;
var n: integer;
state S0, SL, SE;
initialize to S0 begin n := 0; end;
trans
from S0 to SL when A.go name wrong:
begin n := 1000; end;
from S0 to SL when A.go name right:
begin n := 0; end;
from SL to SL when A.tick name step:
begin n := n + 1; end;
from SL to SE when A.stop name finish:
begin output A.done(n); end;
end;
end.
)";

TEST(CheckpointDiff, LastAlternativeIntoLongTailAgrees) {
  constexpr int kTail = 300;
  est::Spec spec = est::compile_spec(kBranchThenTail);
  std::string text = "in A.go\n";
  for (int i = 0; i < kTail; ++i) text += "in A.tick\n";
  text += "in A.stop\nout A.done(" + std::to_string(kTail) + ")\n";
  const tr::Trace trace = tr::parse_trace(spec, text);

  for (const core::Options& preset :
       {core::Options::none(), core::Options::io(), core::Options::full()}) {
    core::Options options = preset;
    options.checkpoint = core::CheckpointMode::Copy;
    const core::DfsResult copy = core::analyze(spec, trace, options);
    options.checkpoint = core::CheckpointMode::Trail;
    const core::DfsResult trail = core::analyze(spec, trace, options);

    ASSERT_EQ(copy.verdict, core::Verdict::Valid);
    EXPECT_EQ(copy.verdict, trail.verdict);
    EXPECT_EQ(copy.solution, trail.solution);
    ASSERT_EQ(trail.solution.size(), kTail + 3u);
    EXPECT_EQ(trail.solution[1], "right");
    EXPECT_EQ(copy.stats.transitions_executed,
              trail.stats.transitions_executed);
    EXPECT_EQ(copy.stats.generates, trail.stats.generates);
    EXPECT_EQ(copy.stats.restores, trail.stats.restores);
    EXPECT_EQ(copy.stats.saves, trail.stats.saves);
    EXPECT_EQ(trail.stats.restores, 1u);
    EXPECT_EQ(trail.stats.saves, 1u);
    // Only the failed first tail is logged (about three entries per step:
    // variable, FSM state, cursor). The successful one, half of TE, runs
    // after the node's last alternative with no mark live; logging it too
    // would put the count near 3 x TE.
    EXPECT_GT(trail.stats.trail_entries, 0u);
    EXPECT_LT(trail.stats.trail_entries,
              2 * trail.stats.transitions_executed);
  }
}

TEST(CheckpointDiff, SameSeedFuzzCampaignsMatchAcrossModes) {
  FuzzConfig config;
  config.seed = 11;
  config.iterations = TANGO_FUZZ_ITERATIONS;
  // tp0 and lapd hold aggregate variables and heap cells, so their
  // trail-mode runs log leaf writes below a root as well as whole roots.
  config.specs = {"abp", "inres", "tp0", "lapd"};

  config.checkpoint = core::CheckpointMode::Copy;
  std::ostringstream copy_log;
  const FuzzReport copy = run_fuzz(config, &copy_log);
  config.checkpoint = core::CheckpointMode::Trail;
  std::ostringstream trail_log;
  const FuzzReport trail = run_fuzz(config, &trail_log);

  EXPECT_TRUE(copy.clean()) << copy_log.str();
  EXPECT_TRUE(trail.clean()) << trail_log.str();
  EXPECT_EQ(copy.traces_analyzed, trail.traces_analyzed);
  EXPECT_EQ(copy.verdicts, trail.verdicts);
  EXPECT_EQ(copy.oracle_checks, trail.oracle_checks);
  ASSERT_EQ(copy.totals.size(), trail.totals.size());
  for (std::size_t i = 0; i < copy.totals.size(); ++i) {
    EXPECT_EQ(copy.totals[i].engine, trail.totals[i].engine);
    EXPECT_EQ(copy.totals[i].analyses, trail.totals[i].analyses);
    EXPECT_EQ(copy.totals[i].stats.transitions_executed,
              trail.totals[i].stats.transitions_executed);
    EXPECT_EQ(copy.totals[i].stats.generates,
              trail.totals[i].stats.generates);
    EXPECT_EQ(copy.totals[i].stats.restores,
              trail.totals[i].stats.restores);
    EXPECT_EQ(copy.totals[i].stats.saves, trail.totals[i].stats.saves);
  }
}

}  // namespace
}  // namespace tango::fuzz
