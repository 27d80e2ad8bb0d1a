// Built-in specifications: compile cleanly and expose the documented
// structure.
#include "specs/builtin_specs.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "estelle/spec.hpp"

namespace tango::specs {
namespace {

TEST(BuiltinSpecs, LookupByName) {
  EXPECT_FALSE(builtin_spec("ack").empty());
  EXPECT_FALSE(builtin_spec("lapd").empty());
  EXPECT_TRUE(builtin_spec("nosuch").empty());
  EXPECT_EQ(all_builtin_specs().size(), 7u);
}

TEST(BuiltinSpecs, AckMatchesPaperFigure1) {
  est::Spec spec = est::compile_spec(ack());
  EXPECT_EQ(spec.states.size(), 2u);       // S1, S2
  EXPECT_EQ(spec.ips.size(), 2u);          // A, B
  ASSERT_EQ(spec.body().transitions.size(), 3u);
  EXPECT_EQ(spec.body().transitions[0].name, "t1");
  EXPECT_EQ(spec.body().transitions[1].name, "t2");
  EXPECT_EQ(spec.body().transitions[2].name, "t3");
}

TEST(BuiltinSpecs, Ip3MatchesPaperFigure2) {
  est::Spec spec = est::compile_spec(ip3());
  EXPECT_EQ(spec.states.size(), 2u);  // s1, s2
  EXPECT_EQ(spec.ips.size(), 3u);     // A, B, C
  EXPECT_EQ(spec.body().transitions.size(), 5u);  // t1..t5
  est::Spec prime = est::compile_spec(ip3prime());
  EXPECT_EQ(prime.body().transitions.size(), 3u);  // only t1..t3
}

TEST(BuiltinSpecs, Tp0HasThePaperTransitions) {
  est::Spec spec = est::compile_spec(tp0());
  std::set<std::string> names;
  for (const est::Transition& t : spec.body().transitions) {
    names.insert(t.name);
  }
  for (const char* expected : {"t13", "t14", "t15", "t16", "t17"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
  // Around 19 transition declarations in the paper's TP0; ours is the
  // same order of magnitude.
  EXPECT_GE(spec.body().transitions.size(), 10u);
  // The buffers are dynamic memory (pointer-typed module variables).
  bool has_pointer_var = false;
  for (const est::ModuleVarInfo& v : spec.module_vars) {
    has_pointer_var |= v.type->kind == est::TypeKind::Pointer;
  }
  EXPECT_TRUE(has_pointer_var);
}

TEST(BuiltinSpecs, LapdHasQ921Structure) {
  est::Spec spec = est::compile_spec(lapd());
  EXPECT_EQ(spec.states.size(), 4u);
  EXPECT_GE(spec.body().transitions.size(), 25u);
  EXPECT_GE(spec.module_vars.size(), 7u);  // vs/va/vr/busy/buffers/queue
  // Both channels: user-side primitives and peer frames.
  EXPECT_GE(spec.interactions.size(), 16u);
}

}  // namespace
}  // namespace tango::specs
