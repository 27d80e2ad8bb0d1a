// Guard implication solver: the `guards` findings over the seeded-defect
// fixtures — contradictions, structural duplicates and priority shadowing
// each reported once, disjoint guards kept out of the nondeterminism
// notes — and the purity gating that keeps an impure guard out of the
// skip set that suppresses repeat findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/guard_solver.hpp"
#include "estelle/spec.hpp"

namespace tango::analysis {
namespace {

std::string fixture(const std::string& name) {
  std::ifstream file(std::string(TANGO_ANALYSIS_FIXTURES) + "/" + name);
  EXPECT_TRUE(file.good()) << name;
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

std::vector<Finding> analyze(const std::string& src) {
  return analyze_guards(est::compile_spec(src));
}

/// Findings whose message holds `fragment`.
std::vector<Finding> matching(const std::vector<Finding>& findings,
                              std::string_view fragment) {
  std::vector<Finding> out;
  std::copy_if(findings.begin(), findings.end(), std::back_inserter(out),
               [&](const Finding& f) {
                 return f.message.find(fragment) != std::string::npos;
               });
  return out;
}

bool mentions(const std::vector<Finding>& findings,
              std::string_view fragment) {
  return !matching(findings, fragment).empty();
}

TEST(GuardSolver, StructuralDuplicateEntersTheSkipSet) {
  const std::vector<Finding> findings =
      analyze(fixture("dup_transitions.est"));
  const std::vector<Finding> dups =
      matching(findings, "structurally identical");
  ASSERT_EQ(dups.size(), 1u);
  EXPECT_EQ(dups[0].unit, "transition 'fork_b'");
  EXPECT_EQ(dups[0].severity, Severity::Warning);
  // fork_b is in the skip set, so the fork_a/fork_b pair raises no
  // nondeterminism note.
  EXPECT_FALSE(mentions(findings, "nondeterministic choice"));
}

TEST(GuardSolver, ShadowedPriorityEntersTheSkipSet) {
  const std::vector<Finding> findings =
      analyze(fixture("shadowed_priority.est"));
  const std::vector<Finding> shadowed = matching(findings, "can never fire");
  ASSERT_EQ(shadowed.size(), 1u);
  EXPECT_EQ(shadowed[0].unit, "transition 'shadowed'");
  EXPECT_NE(shadowed[0].message.find("higher-priority transition 'strong'"),
            std::string::npos);
}

TEST(GuardSolver, DisjointGuardsRaiseNoNondeterminismNote) {
  const std::vector<Finding> findings = analyze(fixture("mutex_guards.est"));
  EXPECT_FALSE(mentions(findings, "nondeterministic choice"));
  EXPECT_TRUE(findings.empty());
}

TEST(GuardSolver, OverlappingGuardsAreReportedNotPruned) {
  const std::vector<Finding> findings =
      analyze(fixture("overlap_guards.est"));
  const std::vector<Finding> notes =
      matching(findings, "nondeterministic choice");
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].severity, Severity::Note);
  EXPECT_NE(notes[0].message.find("transition 'low' and transition 'high'"),
            std::string::npos);
  EXPECT_FALSE(mentions(findings, "can never"));
}

TEST(GuardSolver, ContradictionIsAnErrorAndSkipped) {
  const std::vector<Finding> findings = analyze(R"(
specification s;
channel CH(A, B); by A: m; by B: o;
module M systemprocess; ip P: CH(B); end;
body MB for M;
  var x: integer;
  state z;
  initialize to z begin x := 0; end;
  trans
    from z to z when P.m provided (x > 4) and (x < 3) name never:
    begin end;
    from z to z when P.m name always: begin output P.o; end;
end;
end.
)");
  const std::vector<Finding> never = matching(findings, "can never be true");
  ASSERT_EQ(never.size(), 1u);
  EXPECT_EQ(never[0].unit, "transition 'never'");
  EXPECT_EQ(never[0].severity, Severity::Error);
  // Skipped: `never` takes no part in the pairwise checks.
  EXPECT_FALSE(mentions(findings, "nondeterministic choice"));
  EXPECT_EQ(findings.size(), 1u);
}

TEST(GuardSolver, DeclaredSubrangeBoundsProveExclusion) {
  // flag: 0..1. `flag = 0` and `flag <> 0` are disjoint only through the
  // declared bounds (<> 0 squeezes to [1,1]).
  const std::vector<Finding> findings = analyze(R"(
specification s;
channel CH(A, B); by A: m; by B: o;
module M systemprocess; ip P: CH(B); end;
body MB for M;
  var flag: 0 .. 1;
  state z;
  initialize to z begin flag := 0; end;
  trans
    from z to z when P.m provided flag = 0 name off:
    begin flag := 1; end;
    from z to z when P.m provided flag <> 0 name on:
    begin flag := 0; output P.o; end;
end;
end.
)");
  EXPECT_FALSE(mentions(findings, "nondeterministic choice"));
}

TEST(GuardSolver, VarParamWriteRevokesModuleBoundTrust) {
  // The solver seeds declared subrange bounds only for slots never written
  // through a var parameter (the write is range-checked against the
  // PARAMETER's type, so the solver deliberately refuses to reason about
  // the slot's contents once a routine has had reference access to it).
  const char* const tmpl = R"(
specification s;
channel CH(A, B); by A: m; by B: o;
module M systemprocess; ip P: CH(B); end;
body MB for M;
  type small = 0 .. 7;
  var w: small;
  procedure touch(var n: small);
  begin n := 0; end;
  state z;
  initialize to z begin w := 0; end;
  trans
    from z to z when P.m provided w = 8 name beyond:
    begin output P.o; end;
    from z to z when P.m provided w < 8 name within:
    begin %BLOCK% end;
end;
end.
)";
  const auto with_block = [&](const std::string& block) {
    std::string src = tmpl;
    src.replace(src.find("%BLOCK%"), 7, block);
    return analyze(src);
  };
  // Bounds trusted: [0,7] makes `w = 8` a provable contradiction.
  EXPECT_TRUE(mentions(with_block("w := 0;"), "can never be true"));
  // `touch(w)` passes w by reference to a writing routine — trust revoked,
  // so the same guard is no longer provably false.
  EXPECT_FALSE(mentions(with_block("touch(w);"), "can never be true"));
}

TEST(GuardSolver, ImpureGuardNeverServesAsSkipEvidence) {
  // Two structurally identical transitions whose guard calls a routine
  // that writes a module variable: neither enters the skip set, so the
  // later one is not reported as a duplicate and the pair stays a
  // nondeterministic choice.
  const std::vector<Finding> findings = analyze(R"(
specification s;
channel CH(A, B); by A: m; by B: o;
module M systemprocess; ip P: CH(B); end;
body MB for M;
  var hits: integer;
  function bump(n: integer): boolean;
  begin hits := hits + n; bump := hits < 10; end;
  state z;
  initialize to z begin hits := 0; end;
  trans
    from z to z when P.m provided bump(1) name t1: begin output P.o; end;
    from z to z when P.m provided bump(1) name t2: begin output P.o; end;
end;
end.
)");
  EXPECT_FALSE(mentions(findings, "structurally identical"));
  EXPECT_TRUE(mentions(findings, "nondeterministic choice"));
}

TEST(GuardSolver, CleanPairProducesNoFacts) {
  EXPECT_TRUE(analyze(fixture("uninit_read_ok.est")).empty());
}

}  // namespace
}  // namespace tango::analysis
