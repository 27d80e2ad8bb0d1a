// Relative order checking semantics (paper §2.4.2), including the
// special-case permutation rule for multi-output transition blocks and the
// queue-observability caveats the paper warns about.
#include <gtest/gtest.h>

#include "core/dfs.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_io.hpp"

namespace tango::core {
namespace {

Verdict run(const est::Spec& spec, std::string_view trace,
            const Options& opts) {
  return analyze_text(spec, trace, opts).verdict;
}

TEST(OrderChecking, InputWrtOutputRejectsLateInputs) {
  // The trace records resp BEFORE the req that causes it; consuming the
  // req must then be refused when inputs-wrt-outputs checking is on.
  est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(A, B); by A: req; by B: resp;
module M systemprocess; ip P: CH(B); end;
body MB for M;
  state z;
  initialize to z begin end;
  trans from z to z when P.req name t: begin output P.resp; end;
end;
end.
)");
  const char* trace = "out p.resp\nin p.req\n";
  EXPECT_EQ(run(spec, trace, Options::none()), Verdict::Valid);
  Options io_only = Options::none();
  io_only.check_input_wrt_output = true;
  EXPECT_EQ(run(spec, trace, io_only), Verdict::Invalid);
}

TEST(OrderChecking, OutputWrtInputRejectsEarlyOutputs) {
  // The spec forces note BEFORE req can be consumed; the trace records req
  // first. O/I checking rejects producing note while req is pending.
  est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(A, B); by A: req; by B: note;
module M systemprocess; ip P: CH(B); end;
body MB for M;
  state z, w;
  initialize to z begin end;
  trans
    from z to w name emit: begin output P.note; end;
    from w to w when P.req name consume: begin end;
end;
end.
)");
  const char* trace = "in p.req\nout p.note\n";
  EXPECT_EQ(run(spec, trace, Options::none()), Verdict::Valid);
  Options oi_only = Options::none();
  oi_only.check_output_wrt_input = true;
  EXPECT_EQ(run(spec, trace, oi_only), Verdict::Invalid);
  // I/O checking alone does not reject it.
  Options io_only = Options::none();
  io_only.check_input_wrt_output = true;
  EXPECT_EQ(run(spec, trace, io_only), Verdict::Valid);
}

est::Spec two_ip_spec() {
  // Consumption order is forced: B.req first, then A.req.
  return est::compile_spec(R"(
specification s;
channel CH(E, S); by E: req; by S: resp;
module M systemprocess; ip A: CH(S); B: CH(S); end;
body MB for M;
  state z, w, v;
  initialize to z begin end;
  trans
    from z to w when B.req name tb: begin end;
    from w to v when A.req name ta: begin end;
end;
end.
)");
}

TEST(OrderChecking, IpOrderConstrainsInputsAcrossIps) {
  est::Spec spec = two_ip_spec();
  // Trace records A's input first, but the module can only consume B's
  // first. Without IP checking the cross-ip order is ignored.
  const char* trace = "in a.req\nin b.req\n";
  EXPECT_EQ(run(spec, trace, Options::none()), Verdict::Valid);
  EXPECT_EQ(run(spec, trace, Options::io()), Verdict::Valid);
  EXPECT_EQ(run(spec, trace, Options::ip()), Verdict::Invalid);
  // The consistent recording is accepted in every mode.
  const char* consistent = "in b.req\nin a.req\n";
  EXPECT_EQ(run(spec, consistent, Options::ip()), Verdict::Valid);
  EXPECT_EQ(run(spec, consistent, Options::full()), Verdict::Valid);
}

TEST(OrderChecking, IpOrderConstrainsOutputsAcrossIps) {
  // x (at A) is produced by the first transition, y (at B) by the second;
  // the trace permutes them.
  est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(E, S); by E: go; by S: x;
module M systemprocess; ip A: CH(S); B: CH(S); end;
body MB for M;
  state z, w, v;
  initialize to z begin end;
  trans
    from z to w when A.go name t1: begin output A.x; end;
    from w to v when B.go name t2: begin output B.x; end;
end;
end.
)");
  const char* permuted = "in a.go\nin b.go\nout b.x\nout a.x\n";
  EXPECT_EQ(run(spec, permuted, Options::none()), Verdict::Valid);
  EXPECT_EQ(run(spec, permuted, Options::io()), Verdict::Valid);
  EXPECT_EQ(run(spec, permuted, Options::ip()), Verdict::Invalid);
}

TEST(OrderChecking, SameBlockOutputsMayPermuteAcrossIps) {
  // Paper §2.4.2 special case: two outputs to different ips in ONE
  // transition block may appear permuted in the trace and stay valid even
  // under full checking — Estelle does not specify their order.
  est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(E, S); by E: go; by S: x;
module M systemprocess; ip A: CH(S); B: CH(S); end;
body MB for M;
  state z, w;
  initialize to z begin end;
  trans
    from z to w when A.go name t: begin output A.x; output B.x; end;
    from w to w name u: begin output B.x; end;
end;
end.
)");
  EXPECT_EQ(run(spec, "in a.go\nout b.x\nout a.x\n", Options::full()),
            Verdict::Valid);
  EXPECT_EQ(run(spec, "in a.go\nout a.x\nout b.x\n", Options::full()),
            Verdict::Valid);
  // Only among the globally-earliest pending outputs: t's outputs would
  // take seqs 1 and 3 while seq 2 (left for u) is still pending. The last
  // output t matches (b.x, seq 1) precedes that gap; its first (a.x,
  // seq 3) does not.
  const char* gap = "in a.go\nout b.x\nout b.x\nout a.x\n";
  EXPECT_EQ(run(spec, gap, Options::none()), Verdict::Valid);
  EXPECT_EQ(run(spec, gap, Options::full()), Verdict::Invalid);
}

TEST(OrderChecking, SameIpSameBlockOutputsMayNotPermute) {
  // Within one ip the trace order is always authoritative, even inside a
  // block: out A.x1; out A.x2 cannot match a trace with x2 first.
  est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(E, S); by E: go; by S: x1; x2;
module M systemprocess; ip A: CH(S); end;
body MB for M;
  state z, w;
  initialize to z begin end;
  trans
    from z to w when A.go name t: begin output A.x1; output A.x2; end;
end;
end.
)");
  EXPECT_EQ(run(spec, "in a.go\nout a.x1\nout a.x2\n", Options::none()),
            Verdict::Valid);
  EXPECT_EQ(run(spec, "in a.go\nout a.x2\nout a.x1\n", Options::none()),
            Verdict::Invalid);
}

TEST(OrderChecking, InputQueueMakesOiUnsound) {
  // Paper §2.4.2: "Outputs with respect to inputs ... should not be used
  // if the implementation that generated the trace includes an input
  // queue". Simulate an IUT whose inputs are recorded at ARRIVAL: a second
  // req is already in the trace before the first resp, although the module
  // consumed it later.
  est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(A, B); by A: req; by B: resp;
module M systemprocess; ip P: CH(B); end;
body MB for M;
  state z;
  initialize to z begin end;
  trans from z to z when P.req name t: begin output P.resp; end;
end;
end.
)");
  std::vector<sim::Feed> feeds = {
      sim::make_feed(spec, 0, "p", "req"),
      sim::make_feed(spec, 0, "p", "req"),
  };
  sim::SimOptions so;
  so.recording = sim::InputRecording::AtArrival;
  sim::SimResult sr = sim::simulate(spec, feeds, so);
  ASSERT_TRUE(sr.completed);
  // Arrival order: req, req, resp, resp.
  ASSERT_EQ(sr.trace.events().size(), 4u);

  Options oi_only = Options::none();
  oi_only.check_output_wrt_input = true;
  EXPECT_EQ(analyze(spec, sr.trace, oi_only).verdict, Verdict::Invalid);
  // Without O/I the queueing is tolerated.
  Options io_only = Options::none();
  io_only.check_input_wrt_output = true;
  EXPECT_EQ(analyze(spec, sr.trace, io_only).verdict, Verdict::Valid);
}

TEST(OrderChecking, FullyObservableTracesValidUnderEveryMode) {
  // Recording inputs at consumption and outputs at generation satisfies
  // all §2.4.2 options (the paper's "observe inputs after they exit ...
  // queues" condition).
  est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(A, B); by A: req(v: integer); by B: resp(v: integer);
module M systemprocess; ip P: CH(B); Q: CH(B); end;
body MB for M;
  state z;
  initialize to z begin end;
  trans
    from z to z when P.req name tp: begin output P.resp(v); end;
    from z to z when Q.req name tq: begin output Q.resp(v + 1); end;
end;
end.
)");
  std::vector<sim::Feed> feeds;
  for (int i = 0; i < 6; ++i) {
    feeds.push_back(sim::make_feed(spec, static_cast<std::uint64_t>(i),
                                   i % 2 == 0 ? "p" : "q", "req",
                                   {rt::Value::make_int(i)}));
  }
  sim::SimResult sr = sim::simulate(spec, feeds, {});
  ASSERT_TRUE(sr.completed);
  for (const Options& opts : {Options::none(), Options::io(), Options::ip(),
                              Options::full()}) {
    EXPECT_EQ(analyze(spec, sr.trace, opts).verdict, Verdict::Valid)
        << opts.order_mode_name();
  }
}

TEST(OrderChecking, OrderOptionsShrinkTheSearch) {
  // §2.4.2: "the use of order checking ... significantly reduces the state
  // space of the search".
  est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(A, B); by A: req(v: integer); by B: resp(v: integer);
module M systemprocess; ip P: CH(B); Q: CH(B); end;
body MB for M;
  state z;
  initialize to z begin end;
  trans
    from z to z when P.req name tp: begin output P.resp(v); end;
    from z to z when Q.req name tq: begin output Q.resp(v); end;
end;
end.
)");
  std::string trace;
  for (int i = 0; i < 5; ++i) {
    trace += "in p.req(" + std::to_string(i) + ")\n";
    trace += "in q.req(" + std::to_string(i) + ")\n";
    trace += "out p.resp(" + std::to_string(i) + ")\n";
    trace += "out q.resp(" + std::to_string(i) + ")\n";
  }
  DfsResult none = analyze_text(spec, trace, Options::none());
  DfsResult full = analyze_text(spec, trace, Options::full());
  ASSERT_EQ(none.verdict, Verdict::Valid);
  ASSERT_EQ(full.verdict, Verdict::Valid);
  EXPECT_LE(full.stats.transitions_executed,
            none.stats.transitions_executed);
  EXPECT_LE(full.stats.saves, none.stats.saves);
}

}  // namespace
}  // namespace tango::core
