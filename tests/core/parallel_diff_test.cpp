// Parallel-vs-sequential differential: over every golden trace under
// traces/, each order preset, and jobs ∈ {1, 2, 4}, in both relaxed and
// deterministic scheduling, the work-stealing engine must reach the same
// verdict as core::analyze (counters are schedule-dependent in relaxed
// mode by design and are not compared here — parallel_dfs_test covers
// determinism of the counters where it is promised). A same-seed fuzz
// campaign with engines {dfs, par} widens the net beyond the goldens, and
// a jobs>1 campaign must reproduce the sequential campaign's report.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dfs.hpp"
#include "core/option_table.hpp"
#include "core/parallel_dfs.hpp"
#include "estelle/spec.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/fuzz.hpp"
#include "specs/builtin_specs.hpp"
#include "support/text.hpp"
#include "trace/trace_io.hpp"

#ifndef TANGO_FUZZ_ITERATIONS
#define TANGO_FUZZ_ITERATIONS 50
#endif

namespace tango::core {
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

tr::Trace load_golden(const est::Spec& spec, const Golden& golden) {
  std::ifstream file(std::string(TANGO_TRACES_DIR) + "/" + golden.trace_file);
  EXPECT_TRUE(file.good()) << golden.trace_file;
  std::stringstream text;
  text << file.rdbuf();
  return tr::parse_trace(spec, text.str());
}

TEST(ParallelDiff, GoldenTracesAgreeUnderEveryPresetAndJobCount) {
  for (const Golden& golden : goldens()) {
    est::Spec spec = est::compile_spec(specs::builtin_spec(golden.spec));
    tr::Trace trace = load_golden(spec, golden);
    for (const char* order : fuzz::kOrderPresets) {
      Options options;
      apply_order(options, to_lower(order));
      options.initial_state_search = golden.initial_state_search;
      options.max_transitions = 200'000;
      const DfsResult seq = analyze(spec, trace, options);
      for (int jobs : {1, 2, 4}) {
        for (const bool deterministic : {false, true}) {
          Options par_options = options;
          par_options.jobs = jobs;
          par_options.deterministic = deterministic;
          const DfsResult par = analyze_parallel(spec, trace, par_options);
          EXPECT_EQ(par.verdict, seq.verdict)
              << golden.trace_file << " order=" << order
              << " jobs=" << jobs << " deterministic=" << deterministic;
        }
      }
    }
  }
}

TEST(ParallelDiff, HashPruningAgreesAcrossEngines) {
  // The shared sharded table (relaxed) and the per-task private tables
  // (deterministic) prune differently; neither may change a verdict.
  for (const Golden& golden : goldens()) {
    est::Spec spec = est::compile_spec(specs::builtin_spec(golden.spec));
    tr::Trace trace = load_golden(spec, golden);
    Options options = Options::none();
    options.initial_state_search = golden.initial_state_search;
    options.max_transitions = 200'000;
    options.hash_states = true;
    const DfsResult seq = analyze(spec, trace, options);
    for (const bool deterministic : {false, true}) {
      Options par_options = options;
      par_options.jobs = 4;
      par_options.deterministic = deterministic;
      const DfsResult par = analyze_parallel(spec, trace, par_options);
      EXPECT_EQ(par.verdict, seq.verdict)
          << golden.trace_file << " deterministic=" << deterministic;
    }
  }
}

TEST(ParallelDiff, SameSeedFuzzCampaignWithParEngineIsClean) {
  fuzz::FuzzConfig config;
  config.seed = 23;
  // tp0 under the fuzzer's NR base ordering is the branching-heavy
  // workload; half the usual iteration budget keeps the campaign
  // test-sized with two specs in the mix.
  config.iterations = std::min(TANGO_FUZZ_ITERATIONS, 25);
  config.specs = {"abp", "tp0"};
  config.engines = {fuzz::Engine::Dfs, fuzz::Engine::ParDfs};

  std::ostringstream log;
  const fuzz::FuzzReport report = fuzz::run_fuzz(config, &log);
  EXPECT_TRUE(report.clean()) << log.str();
  EXPECT_EQ(report.iterations, config.iterations);
}

TEST(ParallelDiff, ConcurrentFuzzIterationsReproduceSequentialReport) {
  fuzz::FuzzConfig config;
  config.seed = 5;
  config.iterations = std::min(TANGO_FUZZ_ITERATIONS, 12);
  config.specs = {"abp", "inres"};

  const fuzz::FuzzReport seq = fuzz::run_fuzz(config, nullptr);
  config.jobs = 3;
  const fuzz::FuzzReport par = fuzz::run_fuzz(config, nullptr);

  EXPECT_EQ(par.iterations, seq.iterations);
  EXPECT_EQ(par.traces_analyzed, seq.traces_analyzed);
  EXPECT_EQ(par.verdicts, seq.verdicts);
  EXPECT_EQ(par.oracle_checks, seq.oracle_checks);
  EXPECT_EQ(par.disagreements.size(), seq.disagreements.size());
  ASSERT_EQ(par.totals.size(), seq.totals.size());
  for (std::size_t i = 0; i < par.totals.size(); ++i) {
    EXPECT_EQ(par.totals[i].engine, seq.totals[i].engine);
    EXPECT_EQ(par.totals[i].analyses, seq.totals[i].analyses);
    EXPECT_EQ(par.totals[i].stats.transitions_executed,
              seq.totals[i].stats.transitions_executed);
    EXPECT_EQ(par.totals[i].stats.generates,
              seq.totals[i].stats.generates);
    EXPECT_EQ(par.totals[i].stats.restores, seq.totals[i].stats.restores);
    EXPECT_EQ(par.totals[i].stats.saves, seq.totals[i].stats.saves);
  }
}

}  // namespace
}  // namespace tango::core
