// Whole-spec invariant engine tests: fixpoint tables over the seeded-defect
// fixtures (dead-after-init transition, fixpoint-unreachable control state,
// never-emittable interaction, cross-transition subrange fault), the
// `invariants` lint pass wired through LintOptions::passes, and the
// soundness campaign — re-executing witness paths of golden and simulated
// traces through the engine's generate/apply primitives and checking every
// concrete state they pass through against its control-state invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariants.hpp"
#include "analysis/lint.hpp"
#include "core/dfs.hpp"
#include "core/executor.hpp"
#include "core/generator.hpp"
#include "fuzz/generator.hpp"
#include "sim/simulator.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango::analysis {
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

StateInvariants invariants_of(const est::Spec& spec) {
  return compute_state_invariants(spec, compute_routine_effects(spec));
}

int transition_index(const est::Spec& spec, const std::string& name) {
  const auto& trs = spec.body().transitions;
  for (std::size_t i = 0; i < trs.size(); ++i) {
    if (trs[i].name == name) return static_cast<int>(i);
  }
  ADD_FAILURE() << "no transition named " << name;
  return -1;
}

bool any_finding(const std::vector<Finding>& findings,
                 const std::string& needle) {
  for (const Finding& f : findings) {
    if (f.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Fixpoint tables
// ---------------------------------------------------------------------------

TEST(Invariants, DeadAfterInitFixpoint) {
  est::Spec spec = est::compile_spec(fixture("dead_after_init.est"));
  const StateInvariants inv = invariants_of(spec);
  ASSERT_TRUE(inv.valid);
  const int s = spec.state_ordinal("s");
  ASSERT_GE(s, 0);
  EXPECT_TRUE(inv.is_reachable(s));
  // x only ever holds 0 or 1 at S.
  const Interval& x = inv.bound(s, 0);
  EXPECT_EQ(x.lo, 0);
  EXPECT_EQ(x.hi, 1);
  // ghost (provided x = 5) is refuted at S and therefore dead; the live
  // pair is not.
  EXPECT_TRUE(inv.is_refuted(s, transition_index(spec, "ghost")));
  EXPECT_TRUE(inv.is_dead(transition_index(spec, "ghost")));
  EXPECT_FALSE(inv.is_dead(transition_index(spec, "step")));
  EXPECT_FALSE(inv.is_dead(transition_index(spec, "back")));
}

TEST(Invariants, SemanticallyUnreachableState) {
  est::Spec spec = est::compile_spec(fixture("unreachable_state_sem.est"));
  const StateInvariants inv = invariants_of(spec);
  ASSERT_TRUE(inv.valid);
  EXPECT_TRUE(inv.is_reachable(spec.state_ordinal("s1")));
  EXPECT_FALSE(inv.is_reachable(spec.state_ordinal("s2")));
  EXPECT_TRUE(inv.is_dead(transition_index(spec, "jump")));
  EXPECT_TRUE(inv.is_dead(transition_index(spec, "spin")));
  EXPECT_FALSE(inv.is_dead(transition_index(spec, "loop")));
}

TEST(Invariants, ChannelFlowNeverSent) {
  est::Spec spec = est::compile_spec(fixture("never_sent.est"));
  const StateInvariants inv = invariants_of(spec);
  ASSERT_TRUE(inv.valid);
  const int p = spec.ip_index("p");
  ASSERT_GE(p, 0);
  const int done = spec.output_id(p, "done");
  const int err = spec.output_id(p, "err");
  ASSERT_GE(done, 0);
  ASSERT_GE(err, 0);
  // done is output by the live `ok`; err only by the dead `bad`.
  EXPECT_TRUE(inv.is_emittable(p, done));
  EXPECT_FALSE(inv.is_emittable(p, err));
  EXPECT_TRUE(inv.is_dead(transition_index(spec, "bad")));
}

// ---------------------------------------------------------------------------
// The `invariants` lint pass
// ---------------------------------------------------------------------------

LintReport lint_invariants(const est::Spec& spec) {
  LintOptions lo;
  lo.passes = "invariants";
  return lint(spec, lo);
}

TEST(Invariants, LintReportsSemanticallyDeadTransition) {
  est::Spec spec = est::compile_spec(fixture("dead_after_init.est"));
  LintReport report = lint_invariants(spec);
  EXPECT_TRUE(any_finding(report.findings, "semantically dead"));
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.pass, "invariants");
    EXPECT_EQ(f.severity, Severity::Warning);
  }
}

TEST(Invariants, LintReportsFixpointUnreachableState) {
  est::Spec spec = est::compile_spec(fixture("unreachable_state_sem.est"));
  LintReport report = lint_invariants(spec);
  EXPECT_TRUE(
      any_finding(report.findings, "unreachable in the interval fixpoint"));
  EXPECT_TRUE(any_finding(report.findings, "no source state is reachable"));
  // The syntactic `reach` pass must stay silent on this spec: the defect
  // is only visible semantically.
  LintOptions reach_only;
  reach_only.passes = "reach";
  EXPECT_TRUE(lint(spec, reach_only).findings.empty());
}

TEST(Invariants, LintReportsNeverEmittedInteraction) {
  est::Spec spec = est::compile_spec(fixture("never_sent.est"));
  LintReport report = lint_invariants(spec);
  EXPECT_TRUE(any_finding(report.findings, "can never be output"));
  // The syntactic `interactions` pass is satisfied — err has a site.
  LintOptions inter_only;
  inter_only.passes = "interactions";
  EXPECT_FALSE(
      any_finding(lint(spec, inter_only).findings, "never produced"));
}

TEST(Invariants, LintReportsCrossTransitionFault) {
  est::Spec spec = est::compile_spec(fixture("cross_state_fault.est"));
  LintReport report = lint_invariants(spec);
  EXPECT_TRUE(
      any_finding(report.findings, "provable only across transitions"));
  // The per-transition intervals pass cannot decide it (x is a plain
  // integer under declared-type entry bounds).
  LintOptions intervals_only;
  intervals_only.passes = "intervals";
  EXPECT_TRUE(lint(spec, intervals_only).findings.empty());
}

TEST(Invariants, UnknownPassNamesInvariantsInTheList) {
  est::Spec spec = est::compile_spec(fixture("dead_after_init.est"));
  LintOptions lo;
  lo.passes = "invariantz";
  try {
    (void)lint(spec, lo);
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown lint pass"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("invariants"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Proof discipline
// ---------------------------------------------------------------------------

TEST(Invariants, ImpureProvidedClauseBailsWholesale) {
  est::Spec spec = est::compile_spec(fixture("impure_provided_bad.est"));
  const StateInvariants inv = invariants_of(spec);
  EXPECT_FALSE(inv.valid);
  EXPECT_EQ(std::count(inv.refuted.begin(), inv.refuted.end(), 1), 0);
  EXPECT_TRUE(lint_invariants(spec).findings.empty());
}

TEST(Invariants, StateTablesCarryRefutedAndEmittableFacts) {
  est::Spec spec = est::compile_spec(fixture("never_sent.est"));
  const StateInvariants inv = invariants_of(spec);
  ASSERT_TRUE(inv.valid);
  const int p = spec.ip_index("p");
  EXPECT_FALSE(inv.is_emittable(p, spec.output_id(p, "err")));
  EXPECT_TRUE(inv.is_emittable(p, spec.output_id(p, "done")));
  const int s = spec.state_ordinal("s");
  EXPECT_TRUE(inv.is_refuted(s, transition_index(spec, "bad")));
  EXPECT_FALSE(inv.is_refuted(s, transition_index(spec, "ok")));
}

// Builtin specifications must keep analyzing cleanly with the engine on:
// no error-level findings (the fuzzer's lint gate), and a valid fixpoint
// or a clean wholesale bail — never a crash or a poisoned table.
TEST(Invariants, BuiltinSpecsLintCleanAtErrorLevel) {
  for (const char* name :
       {"ack", "ip3", "ip3prime", "abp", "inres", "tp0", "lapd"}) {
    est::Spec spec = est::compile_spec(specs::builtin_spec(name));
    LintReport report = lint_invariants(spec);
    EXPECT_FALSE(report.has_errors()) << name << ":\n" << report.render();
  }
}

// ---------------------------------------------------------------------------
// Soundness campaign: every concrete state a witness path passes through
// must be covered by the invariant table — its control state reachable,
// every defined scalar module variable inside its interval — and no fired
// transition may be dead. Any unsound fact fails here.
// ---------------------------------------------------------------------------

/// Re-executes a witness (DfsResult::solution: the initialize clause, then
/// transition names) with core::generate and core::apply_firing, choosing
/// among the generated firings by transition name, backtracking when a
/// name is ambiguous. Every state an applied firing produces is checked,
/// on the final path or not: each is a state the specification reaches.
class WitnessReplay {
 public:
  WitnessReplay(const est::Spec& spec, const StateInvariants& inv,
                const tr::Trace& trace, const core::Options& options)
      : spec_(spec),
        inv_(inv),
        trace_(trace),
        ro_(spec, options),
        interp_(spec, rt::EvalMode::Strict, options.interp) {}

  /// True when the whole witness re-executes and explains the trace.
  bool run(const std::vector<std::string>& path) {
    path_ = &path;
    const auto& inits = spec_.body().initializers;
    for (std::size_t ii = 0; ii < inits.size(); ++ii) {
      core::InitResult init =
          core::apply_initializer(interp_, trace_, ro_, ii, stats_);
      if (!init.ok || path.empty() ||
          path[0] != "initialize to " + state_name(init.state)) {
        continue;
      }
      check(init.state);
      if (from(1, init.state)) return true;
    }
    return false;
  }

  /// States checked so far.
  [[nodiscard]] int checked() const { return checked_; }

 private:
  bool from(std::size_t step, core::SearchState st) {
    if (step == path_->size()) return st.cursors.all_done(trace_, ro_);
    const core::GenResult gen =
        core::generate(interp_, trace_, ro_, st, stats_);
    for (const core::Firing& firing : gen.firings) {
      const auto t = static_cast<std::size_t>(firing.transition);
      if (spec_.body().transitions[t].name != (*path_)[step]) continue;
      core::SearchState next = st;
      if (!core::apply_firing(interp_, trace_, ro_, next, firing, stats_)
               .ok) {
        continue;
      }
      EXPECT_FALSE(inv_.is_dead(firing.transition))
          << "fired dead transition " << (*path_)[step];
      check(next);
      if (from(step + 1, std::move(next))) return true;
    }
    return false;
  }

  void check(const core::SearchState& st) {
    ++checked_;
    const int s = st.machine.fsm_state;
    ASSERT_GE(s, 0);
    ASSERT_LT(s, inv_.n_states);
    EXPECT_TRUE(inv_.is_reachable(s)) << "occupied state " << state_name(st)
                                      << " is unreachable in the fixpoint";
    const std::size_t n = std::min(
        static_cast<std::size_t>(inv_.n_module_vars), st.machine.vars.size());
    for (std::size_t v = 0; v < n; ++v) {
      const rt::Value& val = st.machine.vars[v];
      if (val.is_undefined() || !val.is_scalar()) continue;
      const Interval& b = inv_.bound(s, static_cast<int>(v));
      EXPECT_TRUE(val.scalar() >= b.lo && val.scalar() <= b.hi)
          << "module variable " << v << " = " << val.scalar()
          << " outside [" << b.lo << ", " << b.hi << "] at state "
          << state_name(st);
    }
  }

  std::string state_name(const core::SearchState& st) const {
    return spec_.states[static_cast<std::size_t>(st.machine.fsm_state)];
  }

  const est::Spec& spec_;
  const StateInvariants& inv_;
  const tr::Trace& trace_;
  core::ResolvedOptions ro_;
  rt::Interp interp_;
  core::Stats stats_;
  const std::vector<std::string>* path_ = nullptr;
  int checked_ = 0;
};

/// Analyzes `trace` under each order preset; every valid verdict's witness
/// is re-executed and checked. Returns the number of states checked.
int check_witnesses(const est::Spec& spec, const StateInvariants& inv,
                    const tr::Trace& trace, const std::string& label) {
  int checked = 0;
  for (core::Options options : {core::Options::none(), core::Options::io(),
                                core::Options::full()}) {
    options.max_transitions = 200'000;
    const core::DfsResult r = core::analyze(spec, trace, options);
    if (r.verdict != core::Verdict::Valid) continue;
    WitnessReplay replay(spec, inv, trace, options);
    EXPECT_TRUE(replay.run(r.solution))
        << label << " " << options.order_mode_name()
        << ": the witness does not re-execute";
    checked += replay.checked();
  }
  return checked;
}

TEST(Invariants, SoundnessOverGoldenTraces) {
  struct Golden {
    const char* trace;
    const char* spec;
  };
  const Golden goldens[] = {
      {"abp_valid.tr", "abp"},
      {"ack_paper.tr", "ack"},
      {"inres_valid.tr", "inres"},
      {"tp0_valid.tr", "tp0"},
  };
  for (const Golden& g : goldens) {
    est::Spec spec = est::compile_spec(specs::builtin_spec(g.spec));
    const StateInvariants inv = invariants_of(spec);
    ASSERT_TRUE(inv.valid) << g.spec;
    const tr::Trace trace = tr::parse_trace(
        spec, read_file(std::string(TANGO_TRACES_DIR) + "/" + g.trace));
    EXPECT_GT(check_witnesses(spec, inv, trace, g.trace), 1) << g.trace;
  }

  // Simulated runs of every builtin, inputs recorded at consumption (valid
  // under every preset), from random stimulus scripts.
  for (const auto& [name, text] : specs::all_builtin_specs()) {
    est::Spec spec = est::compile_spec(text);
    const StateInvariants inv = invariants_of(spec);
    ASSERT_TRUE(inv.valid) << name;
    int checked = 0;
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
      std::mt19937 rng(seed);
      sim::SimOptions so;
      so.seed = seed;
      so.max_steps = 160;
      const sim::SimResult sim =
          sim::simulate(spec, fuzz::synthesize_feeds(spec, rng), so);
      checked += check_witnesses(spec, inv, sim.trace,
                                 std::string(name) + " seed " +
                                     std::to_string(seed));
    }
    EXPECT_GT(checked, 6) << name;
  }
}

}  // namespace
}  // namespace tango::analysis
