// Differential test for guard-solver pruning: analyses with static_prune
// on and off must be verdict- AND witness-identical — the matrix only ever
// removes work, never behavior. On specs the solver has facts about, the
// pruned run must also demonstrably do less work (static_skips > 0, and
// strictly fewer TE/GE when the search exhausts).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dfs.hpp"
#include "estelle/spec.hpp"
#include "fuzz/fuzz.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

std::string fixture(const std::string& name) {
  return read_file(std::string(TANGO_ANALYSIS_FIXTURES) + "/" + name);
}

struct Pair {
  core::DfsResult pruned;
  core::DfsResult plain;
};

Pair both(const est::Spec& spec, const std::string& trace_text,
          core::Options base) {
  Pair p;
  base.static_prune = true;
  p.pruned = core::analyze_text(spec, trace_text, base);
  base.static_prune = false;
  p.plain = core::analyze_text(spec, trace_text, base);
  EXPECT_EQ(p.plain.stats.static_skips, 0u);
  return p;
}

void expect_identical(const Pair& p) {
  EXPECT_EQ(p.pruned.verdict, p.plain.verdict);
  EXPECT_EQ(p.pruned.solution, p.plain.solution);
}

// Every stored golden trace, replayed with pruning toggled, under both the
// unconstrained and the fully-ordered presets.
void golden(const std::string& trace_file, const std::string& spec_name,
            core::Verdict expected, bool initial_state_search = false) {
  est::Spec spec = est::compile_spec(specs::builtin_spec(spec_name));
  const std::string text =
      read_file(std::string(TANGO_TRACES_DIR) + "/" + trace_file);
  for (core::Options base : {core::Options::none(), core::Options::io()}) {
    base.max_transitions = 200'000;
    base.initial_state_search = initial_state_search;
    Pair p = both(spec, text, base);
    expect_identical(p);
    EXPECT_EQ(p.pruned.verdict, expected) << trace_file;
  }
}

TEST(PruneDiff, AbpValid) {
  golden("abp_valid.tr", "abp", core::Verdict::Valid);
}

TEST(PruneDiff, AbpInvalid) {
  golden("abp_invalid.tr", "abp", core::Verdict::Invalid);
}

TEST(PruneDiff, AckPaper) {
  golden("ack_paper.tr", "ack", core::Verdict::Valid);
}

TEST(PruneDiff, InresValid) {
  golden("inres_valid.tr", "inres", core::Verdict::Valid);
}

TEST(PruneDiff, Tp0Valid) {
  golden("tp0_valid.tr", "tp0", core::Verdict::Valid);
}

TEST(PruneDiff, LapdMidstream) {
  golden("lapd_midstream.tr", "lapd", core::Verdict::Valid,
         /*initial_state_search=*/true);
}

// Three pruning levels — no static facts at all, pairwise guard-solver
// facts only, and full (pairwise + whole-spec invariant facts). All three
// must agree on verdict and witness, the off level skips nothing and the
// full level never skips less than pairwise; the full level must
// demonstrably do less work where only it has facts.

struct Triple {
  core::DfsResult off;
  core::DfsResult pairwise;
  core::DfsResult full;
};

Triple all_levels(const est::Spec& spec, const std::string& trace_text,
                  core::Options base) {
  Triple t;
  base.static_prune = false;
  t.off = core::analyze_text(spec, trace_text, base);
  EXPECT_EQ(t.off.stats.static_skips, 0u);
  base.static_prune = true;
  base.invariant_prune = false;
  t.pairwise = core::analyze_text(spec, trace_text, base);
  base.invariant_prune = true;
  t.full = core::analyze_text(spec, trace_text, base);
  EXPECT_GE(t.full.stats.static_skips, t.pairwise.stats.static_skips);
  return t;
}

void expect_identical(const Triple& t) {
  EXPECT_EQ(t.off.verdict, t.pairwise.verdict);
  EXPECT_EQ(t.off.verdict, t.full.verdict);
  EXPECT_EQ(t.off.solution, t.pairwise.solution);
  EXPECT_EQ(t.off.solution, t.full.solution);
}

// n fork/back rounds; when `valid` is false the final done is missing, so
// the search must exhaust every path to conclude Invalid.
std::string fork_rounds(int n, bool valid) {
  std::string t;
  for (int i = 0; i < n; ++i) {
    t += "in p.go\nin p.go\n";
    if (valid || i + 1 < n) t += "out p.done\n";
  }
  return t + "eof\n";
}

// Structural duplicates: pruning skips fork_b at every S1 node. On a valid
// trace the witness is identical (both searches pick fork_a first); on an
// invalid trace the exhaustive search visits every fork combination
// unpruned but a single path pruned — strictly less work, same verdict.
TEST(PruneDiff, DuplicateTransitionsValidTraceSameWitness) {
  est::Spec spec = est::compile_spec(fixture("dup_transitions.est"));
  Pair p = both(spec, fork_rounds(1, true), core::Options::none());
  expect_identical(p);
  EXPECT_EQ(p.pruned.verdict, core::Verdict::Valid);
  EXPECT_GT(p.pruned.stats.static_skips, 0u);
}

TEST(PruneDiff, DuplicateTransitionsExhaustionDoesStrictlyLessWork) {
  for (const auto& [file, n] :
       {std::pair{"dup_transitions.est", 2}, std::pair{"dup3_forks.est", 3},
        std::pair{"dup3_forks.est", 5}, std::pair{"dup3_forks.est", 7}}) {
    SCOPED_TRACE(std::string(file) + " n=" + std::to_string(n));
    est::Spec spec = est::compile_spec(fixture(file));
    Triple t = all_levels(spec, fork_rounds(n, false), core::Options::none());
    expect_identical(t);
    EXPECT_EQ(t.full.verdict, core::Verdict::Invalid);
    EXPECT_GT(t.full.stats.static_skips, 0u);
    EXPECT_LT(t.full.stats.transitions_executed,
              t.off.stats.transitions_executed);
    EXPECT_LT(t.full.stats.generates, t.off.stats.generates);
  }
}

// Mutual exclusion at runtime: once `opening` (x = 0) evaluates true,
// `closing` (x = 1) is skipped without evaluation, at every node of a
// long toggle trace.
TEST(PruneDiff, MutexMatrixSkipsDoomedCandidates) {
  est::Spec spec = est::compile_spec(fixture("mutex_guards.est"));
  for (const int n : {1, 64, 256}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Triple t = all_levels(spec, fork_rounds(n, true), core::Options::none());
    expect_identical(t);
    EXPECT_EQ(t.full.verdict, core::Verdict::Valid);
    EXPECT_GE(t.pairwise.stats.static_skips, static_cast<std::uint64_t>(n));
  }
}

// Priority shadowing: `shadowed` can never fire, so skipping it changes
// nothing observable.
TEST(PruneDiff, ShadowedTransitionSkipPreservesVerdict) {
  est::Spec spec = est::compile_spec(fixture("shadowed_priority.est"));
  Pair p = both(spec,
                "in p.go\n"
                "in p.go\n"
                "eof\n",
                core::Options::none());
  expect_identical(p);
  EXPECT_EQ(p.pruned.verdict, core::Verdict::Valid);
  EXPECT_GT(p.pruned.stats.static_skips, 0u);
}

// Every stored golden trace at every pruning level, under both presets.
TEST(InvariantPruneDiff, GoldenTracesAgreeAcrossAllLevels) {
  struct Golden {
    const char* trace;
    const char* spec;
    bool initial_state_search;
  };
  const Golden goldens[] = {
      {"abp_valid.tr", "abp", false},   {"abp_invalid.tr", "abp", false},
      {"ack_paper.tr", "ack", false},   {"inres_valid.tr", "inres", false},
      {"tp0_valid.tr", "tp0", false},   {"lapd_midstream.tr", "lapd", true},
  };
  for (const Golden& g : goldens) {
    est::Spec spec = est::compile_spec(specs::builtin_spec(g.spec));
    const std::string text =
        read_file(std::string(TANGO_TRACES_DIR) + "/" + g.trace);
    for (core::Options base :
         {core::Options::none(), core::Options::io()}) {
      base.max_transitions = 200'000;
      base.initial_state_search = g.initial_state_search;
      Triple t = all_levels(spec, text, base);
      expect_identical(t);
    }
  }
}

// `ghost` is declared first and its guard (x = 5) is only refutable from
// the state invariant: the pairwise mutex can't skip it (no guard has
// held yet when it is considered), so the full level must record strictly
// more static skips while verdict and witness stay identical.
TEST(InvariantPruneDiff, StateRefutedCandidateSkippedBeforeEvaluation) {
  est::Spec spec = est::compile_spec(fixture("dead_after_init.est"));
  Triple t = all_levels(spec,
                        "in p.go\n"
                        "in p.go\n"
                        "out p.done\n"
                        "eof\n",
                        core::Options::none());
  expect_identical(t);
  EXPECT_EQ(t.full.verdict, core::Verdict::Valid);
  EXPECT_GT(t.full.stats.static_skips, t.pairwise.stats.static_skips);
}

// The only transition that could output err is invariant-dead, so a
// complete trace still expecting `out p.err` dooms the whole subtree: the
// full level cuts at the root (strictly fewer TE, strictly more skips than
// pairwise) while all levels agree the trace is invalid. doomed_fork
// branches 2^n ways before the err, with nothing the pairwise solver can
// prove about its forks.
TEST(InvariantPruneDiff, DoomedOutputCutsSubtree) {
  std::vector<std::pair<std::string, std::string>> cases = {
      {"never_sent.est", "in p.go\nin p.go\nout p.err\neof\n"}};
  for (const int n : {8, 12, 16}) {
    std::string trace;
    for (int i = 0; i < n; ++i) trace += "in p.go\n";
    cases.emplace_back("doomed_fork.est", trace + "out p.err\neof\n");
  }
  for (const auto& [file, trace] : cases) {
    SCOPED_TRACE(file + ": " + trace);
    est::Spec spec = est::compile_spec(fixture(file));
    Triple t = all_levels(spec, trace, core::Options::none());
    EXPECT_EQ(t.off.verdict, core::Verdict::Invalid);
    EXPECT_EQ(t.pairwise.verdict, core::Verdict::Invalid);
    EXPECT_EQ(t.full.verdict, core::Verdict::Invalid);
    EXPECT_GT(t.full.stats.static_skips, 0u);
    EXPECT_GT(t.full.stats.static_skips, t.pairwise.stats.static_skips);
    EXPECT_LT(t.full.stats.transitions_executed,
              t.off.stats.transitions_executed);
  }
}

// Cross-transition provable fault: the invariant facts carry bounds but
// the seeded fault surfaces at run time either way — all levels must agree
// on the verdict for a trace that drives through it.
TEST(InvariantPruneDiff, CrossStateFaultVerdictParity) {
  est::Spec spec = est::compile_spec(fixture("cross_state_fault.est"));
  Triple t = all_levels(spec,
                        "in p.go\n"
                        "out p.done\n"
                        "eof\n",
                        core::Options::none());
  expect_identical(t);
}

// Same-seed fuzz campaigns with pruning toggled: both must be clean (every
// oracle invariant holds either way) and cover the same trace variants.
TEST(PruneDiff, SameSeedFuzzCampaignsAgree) {
  fuzz::FuzzConfig config;
  config.seed = 20260805;
  config.iterations = 3;
  config.specs = {"ack"};
  config.static_prune = true;
  fuzz::FuzzReport pruned = fuzz::run_fuzz(config);
  config.static_prune = false;
  fuzz::FuzzReport plain = fuzz::run_fuzz(config);
  EXPECT_TRUE(pruned.clean()) << pruned.summary();
  EXPECT_TRUE(plain.clean()) << plain.summary();
  EXPECT_EQ(pruned.traces_analyzed, plain.traces_analyzed);
  EXPECT_EQ(pruned.verdicts, plain.verdicts);
  EXPECT_EQ(pruned.oracle_checks, plain.oracle_checks);
}

}  // namespace
}  // namespace tango
