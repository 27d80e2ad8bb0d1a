#include "core/generator.hpp"

#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "trace/trace_io.hpp"

namespace tango::core {
namespace {

constexpr std::string_view kSpec = R"(
specification s;
channel CH(A, B);
  by A: go; d(v: integer);
  by B: r(v: integer);
module M systemprocess; ip P: CH(B); Q: CH(B); end;
body MB for M;
  var x: integer;
  state z, w;
  initialize to z begin x := 0; end;
  trans
    from z to z when P.go name a: begin end;
    from z to w when P.go name b: begin end;
    from z to z when Q.d provided v > 0 name c: begin x := v; end;
    from z to z provided x > 10 name spont: begin output P.r(x); end;
    from w to z when P.go name from_w_only: begin end;
end;
end.
)";

struct Fixture {
  Fixture() : spec(est::compile_spec(kSpec)), interp(spec) {}

  GenResult gen(const tr::Trace& trace, const Options& opts,
                SearchState* out_state = nullptr) {
    ResolvedOptions ro(spec, opts);
    InitResult init = apply_initializer(interp, trace, ro, 0, stats);
    EXPECT_TRUE(init.ok);
    if (out_state != nullptr) *out_state = init.state;
    SearchState& st = out_state != nullptr ? *out_state : init.state;
    return generate(interp, trace, ro, st, stats);
  }

  est::Spec spec;
  rt::Interp interp;
  Stats stats;
};

int transition_index(const est::Spec& spec, std::string_view name) {
  const auto& ts = spec.body().transitions;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

TEST(Generator, OffersWhenTransitionsMatchingQueueHead) {
  Fixture f;
  tr::Trace t = tr::parse_trace(f.spec, "in p.go\n");
  GenResult g = f.gen(t, Options::none());
  // a and b both consume go; c's queue is empty; spont's provided is false.
  ASSERT_EQ(g.firings.size(), 2u);
  EXPECT_EQ(g.firings[0].transition, transition_index(f.spec, "a"));
  EXPECT_EQ(g.firings[1].transition, transition_index(f.spec, "b"));
  EXPECT_EQ(g.firings[0].input_event, 0);
  EXPECT_FALSE(g.incomplete);  // static trace (eof marked)
}

TEST(Generator, FromStateFiltering) {
  Fixture f;
  tr::Trace t = tr::parse_trace(f.spec, "in p.go\n");
  SearchState st;
  (void)f.gen(t, Options::none(), &st);
  st.machine.fsm_state = f.spec.state_ordinal("w");
  const Options opts = Options::none();
  ResolvedOptions ro(f.spec, opts);
  GenResult g = generate(f.interp, t, ro, st, f.stats);
  ASSERT_EQ(g.firings.size(), 1u);
  EXPECT_EQ(g.firings[0].transition,
            transition_index(f.spec, "from_w_only"));
}

TEST(Generator, ProvidedGuardsEvaluateAgainstBinding) {
  Fixture f;
  tr::Trace pos = tr::parse_trace(f.spec, "in q.d(3)\n");
  GenResult g = f.gen(pos, Options::none());
  ASSERT_EQ(g.firings.size(), 1u);
  ASSERT_EQ(g.firings[0].input_event, 0);
  EXPECT_EQ(pos.event(static_cast<std::uint32_t>(g.firings[0].input_event))
                .params[0]
                .scalar(),
            3);

  tr::Trace neg = tr::parse_trace(f.spec, "in q.d(-3)\n");
  GenResult g2 = f.gen(neg, Options::none());
  EXPECT_TRUE(g2.firings.empty());
}

TEST(Generator, WrongInteractionAtQueueHeadBlocks) {
  Fixture f;
  // d is behind go in q? No — different ips. Here Q's head is d, so the
  // go-consuming transitions cannot fire from Q, and P has no pending
  // input at all.
  tr::Trace t = tr::parse_trace(f.spec, "in q.d(1)\nin p.go\n");
  GenResult g = f.gen(t, Options::none());
  // a, b (from p.go) and c (from q.d) are all fireable: heads match.
  EXPECT_EQ(g.firings.size(), 3u);
}

TEST(Generator, IncompleteOnlyWhenTraceCanGrow) {
  Fixture f;
  tr::Trace open(static_cast<int>(f.spec.ips.size()));  // no eof
  GenResult g = f.gen(open, Options::none());
  EXPECT_TRUE(g.firings.empty());
  EXPECT_TRUE(g.incomplete);  // when-transitions may become fireable (PG)

  tr::Trace closed = tr::parse_trace(f.spec, "");  // eof assumed
  GenResult g2 = f.gen(closed, Options::none());
  EXPECT_FALSE(g2.incomplete);
}

TEST(Generator, DisabledIpNeverOffersAndNeverMarksPg) {
  Fixture f;
  tr::Trace open(static_cast<int>(f.spec.ips.size()));
  Options opts = Options::none();
  opts.disabled_ips = {"p", "q"};
  ResolvedOptions ro(f.spec, opts);
  SearchState st;
  InitResult init = apply_initializer(f.interp, open, ro, 0, f.stats);
  st = init.state;
  GenResult g = generate(f.interp, open, ro, st, f.stats);
  EXPECT_TRUE(g.firings.empty());
  EXPECT_FALSE(g.incomplete);  // §3.2.1: disabling prevents degenerate MDFS
}

TEST(Generator, UnobservableIpSynthesizesUndefinedBinding) {
  Fixture f;
  tr::Trace t = tr::parse_trace(f.spec, "");
  Options opts = Options::none();
  opts.partial = true;
  opts.unobservable_ips = {"q"};
  ResolvedOptions ro(f.spec, opts);
  rt::Interp partial_interp(f.spec, rt::EvalMode::Partial);
  InitResult init = apply_initializer(partial_interp, t, ro, 0, f.stats);
  ASSERT_TRUE(init.ok);
  GenResult g = generate(partial_interp, t, ro, init.state, f.stats);
  // c fires with a synthesized undefined v (provided v > 0 is undefined =>
  // assumed true, paper §5.1-5.2).
  ASSERT_EQ(g.firings.size(), 1u);
  EXPECT_TRUE(g.firings[0].synthesized);
  EXPECT_EQ(g.firings[0].input_event, -1);
  const std::span<const rt::Value> args = when_args(
      g.firings[0], t, ro,
      f.spec.body().transitions[static_cast<std::size_t>(
          g.firings[0].transition)]);
  ASSERT_EQ(args.size(), 1u);
  EXPECT_TRUE(args[0].is_undefined());
}

TEST(Generator, PriorityKeepsOnlyBestGroup) {
  est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(A, B); by A: m;
module M systemprocess; ip P: CH(B); end;
body MB for M;
  state z;
  initialize to z begin end;
  trans
    from z to z when P.m priority 3 name low: begin end;
    from z to z when P.m priority 1 name high: begin end;
    from z to z when P.m name unprioritized: begin end;
end;
end.
)");
  rt::Interp interp(spec);
  Stats stats;
  tr::Trace t = tr::parse_trace(spec, "in p.m\n");
  const Options opts = Options::none();
  ResolvedOptions ro(spec, opts);
  InitResult init = apply_initializer(interp, t, ro, 0, stats);
  GenResult g = generate(interp, t, ro, init.state, stats);
  ASSERT_EQ(g.firings.size(), 1u);
  EXPECT_EQ(g.firings[0].transition, transition_index(spec, "high"));
}

TEST(Generator, FanoutStatisticsAccumulate) {
  Fixture f;
  tr::Trace t = tr::parse_trace(f.spec, "in p.go\n");
  (void)f.gen(t, Options::none());
  EXPECT_EQ(f.stats.generates, 1u);
  EXPECT_EQ(f.stats.fanout_samples, 1u);
  EXPECT_EQ(f.stats.fanout_sum, 2u);
}

}  // namespace
}  // namespace tango::core
