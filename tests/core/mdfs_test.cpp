// On-line trace analysis — the paper's §3 scenarios: the ack example that
// deadlocks plain DFS, PG/PGAV verdict semantics on ip3/ip3', eof-forced
// termination, and the dynamic node-reordering option. The release-path
// cases cover a node that hands its state to its last child: each runs
// under both checkpoint modes and must agree with the copy mode.
#include "core/mdfs.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "sim/mutate.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"

namespace tango::core {
namespace {

struct Online {
  explicit Online(std::string_view spec_text, Options opts = Options::none())
      : spec(est::compile_spec(spec_text)), feed(spec) {
    OnlineConfig config;
    config.options = opts;
    analyzer = std::make_unique<OnlineAnalyzer>(spec, feed, config);
  }

  OnlineStatus pump() { return analyzer->step_round(100000); }

  est::Spec spec;
  tr::MemoryFeed feed;
  std::unique_ptr<OnlineAnalyzer> analyzer;
};

TEST(Mdfs, PaperAckScenarioAvoidsDeadlock) {
  // §3.1: inputs [x x x] at A and [y] at B arrive, output [ack]. A greedy
  // DFS that fires T1 three times starves; MDFS saves the PG states and
  // revisits them, reaching the T1,T2,T3,T1 solution.
  Online o(specs::ack());
  for (const char* line :
       {"in a.x", "in a.x", "in a.x", "in b.y", "out a.ack"}) {
    o.feed.push_line(line);
  }
  OnlineStatus s = o.pump();
  // Everything observed so far is explained: a PGAV node exists.
  EXPECT_EQ(s, OnlineStatus::ValidSoFar);
  EXPECT_GT(o.analyzer->pg_count(), 0u);

  o.feed.push_eof();
  EXPECT_EQ(o.pump(), OnlineStatus::Valid);
  EXPECT_TRUE(o.analyzer->conclusive());
}

TEST(Mdfs, IncrementalFeedingTracksVerdicts) {
  Online o(specs::ack());
  o.feed.push_line("in a.x");
  EXPECT_EQ(o.pump(), OnlineStatus::ValidSoFar);
  o.feed.push_line("in a.x");
  o.feed.push_line("in b.y");
  // Consuming y forces an ack the trace has not recorded yet, so no PGAV
  // node exists — the honest verdict is "likely invalid" (§3.1.2's
  // "maybe") until the ack shows up.
  EXPECT_EQ(o.pump(), OnlineStatus::LikelyInvalid);
  o.feed.push_line("out a.ack");
  EXPECT_EQ(o.pump(), OnlineStatus::ValidSoFar);
  o.feed.push_eof();
  EXPECT_EQ(o.pump(), OnlineStatus::Valid);
}

TEST(Mdfs, UnexplainedOutputIsOnlyLikelyInvalidWhileTraceMayGrow) {
  // "out a.ack" with nothing before it cannot be explained YET — but more
  // inputs could still arrive and make T3 produce it, so the on-line
  // verdict must stay inconclusive (§3.1.2), unlike the batch analyzer.
  Online o(specs::ack());
  o.feed.push_line("out a.ack");
  EXPECT_EQ(o.pump(), OnlineStatus::LikelyInvalid);
  EXPECT_FALSE(o.analyzer->conclusive());
  o.feed.push_line("in a.x");
  o.feed.push_line("in b.y");
  o.feed.push_eof();
  // With x and y available, T2;T3 produces the ack after all: valid.
  EXPECT_EQ(o.pump(), OnlineStatus::Valid);
}

TEST(Mdfs, InvalidPrefixConcludesWithoutEof) {
  // §3.1.2: a conclusive on-line "invalid" is possible when the bad prefix
  // kills every branch and leaves no PG node. A one-shot machine whose
  // final state has no when-transitions gives exactly that.
  Online o(R"(
specification s;
channel CH(A, B); by A: m; by B: r;
module M systemprocess; ip P: CH(B); end;
body MB for M;
  state z, done;
  initialize to z begin end;
  trans from z to done when P.m name t: begin output P.r; end;
end;
end.
)");
  o.feed.push_line("in p.m");
  o.feed.push_line("out p.r");
  o.feed.push_line("in p.m");  // one-shot: a second m can never be consumed
  EXPECT_EQ(o.pump(), OnlineStatus::Invalid);
  EXPECT_TRUE(o.analyzer->conclusive());
}

TEST(Mdfs, Ip3PrimeInvalidOutputIsNotDetected) {
  // §3.1.2, specification ip3': the o output can never be produced, but
  // B/C data keeps the PG cycle alive — the TAM reports "likely invalid",
  // never a conclusive verdict, while data keeps flowing.
  Online o(specs::ip3prime());
  o.feed.push_line("in a.x");
  o.feed.push_line("out a.p");
  o.feed.push_line("out a.o");  // invalid: ip3' never produces o
  o.feed.push_line("in b.data");
  o.feed.push_line("out c.data");
  OnlineStatus s = o.pump();
  EXPECT_EQ(s, OnlineStatus::LikelyInvalid);
  EXPECT_FALSE(o.analyzer->conclusive());

  // More B/C data is verified and the TAM keeps waiting (§3.1.2).
  o.feed.push_line("in c.data");
  o.feed.push_line("out b.data");
  EXPECT_EQ(o.pump(), OnlineStatus::LikelyInvalid);

  // Only the operator's eof marker forces the conclusive verdict.
  o.feed.push_eof();
  EXPECT_EQ(o.pump(), OnlineStatus::Invalid);
}

TEST(Mdfs, Ip3FinishedUnlocksTheOutput) {
  // §3.1.2, full ip3: once finished arrives at B, t4 fires, s2 is reached
  // and o is verified.
  Online o(specs::ip3());
  o.feed.push_line("in b.data");
  o.feed.push_line("out c.data");
  o.feed.push_line("in b.finished");
  o.feed.push_line("in a.x");
  o.feed.push_line("out a.o");
  EXPECT_EQ(o.pump(), OnlineStatus::ValidSoFar);
  o.feed.push_eof();
  EXPECT_EQ(o.pump(), OnlineStatus::Valid);
}

TEST(Mdfs, EofWithUnexplainedEventsIsInvalid) {
  Online o(specs::ack());
  o.feed.push_line("in b.y");  // y is only consumable from S2
  o.feed.push_eof();
  EXPECT_EQ(o.pump(), OnlineStatus::Invalid);
}

TEST(Mdfs, AllDoneNodeWithNothingToWaitOnWaitsForEof) {
  // With u disabled, abp's root has consumed the (empty) prefix and has no
  // when-clause left to wait on. It must stay parked as PGAV — the batch
  // analyzer calls the finished trace `eof` valid — not conclude invalid.
  Options options = Options::none();
  options.disabled_ips = {"u"};
  Online o(specs::abp(), options);
  EXPECT_EQ(o.pump(), OnlineStatus::ValidSoFar);
  EXPECT_FALSE(o.analyzer->conclusive());
  EXPECT_EQ(o.pump(), OnlineStatus::ValidSoFar);
  o.feed.push_eof();
  EXPECT_EQ(o.pump(), OnlineStatus::Valid);
}

TEST(Mdfs, SilentIpsParkEveryNodeUnlessDisabled) {
  // §3.2.1's degenerate case: ip3's A never sees traffic and C sees only
  // outputs, so their empty input queues turn every searched state of a
  // B/C stream into a parked PG node. Disabling both ips prevents it.
  std::size_t parked[2] = {};
  for (const bool disable : {false, true}) {
    Options options = Options::io();
    if (disable) options.disabled_ips = {"a", "c"};
    Online o(specs::ip3(), options);
    for (int i = 0; i < 40; ++i) {
      for (const char* line : {"in b.data", "out c.data"}) {
        o.feed.push_line(line);
        EXPECT_NE(o.pump(), OnlineStatus::Invalid) << line;
      }
    }
    EXPECT_EQ(o.analyzer->status(), OnlineStatus::ValidSoFar);
    parked[disable] = o.analyzer->pg_count();
  }
  EXPECT_LT(parked[true], parked[false])
      << parked[true] << " parked with a and c disabled";
}

TEST(Mdfs, ReorderingOffStillConcludesCorrectly) {
  Options basic = Options::none();
  basic.reorder_pg_nodes = false;  // basic MDFS of §3.1.1
  Online o(specs::ack(), basic);
  for (const char* line :
       {"in a.x", "in a.x", "in a.x", "in b.y", "out a.ack"}) {
    o.feed.push_line(line);
  }
  EXPECT_EQ(o.pump(), OnlineStatus::ValidSoFar);
  o.feed.push_eof();
  EXPECT_EQ(o.pump(), OnlineStatus::Valid);
}

TEST(Mdfs, PiecemealArrivalMatchesBatchVerdict) {
  // Feeding one event per round must reach the same verdict as a batch
  // feed (here: a valid abp exchange with a retransmission).
  const char* lines[] = {
      "in  u.send(9)",  "out m.frame(0, 9)", "out m.frame(0, 9)",
      "in  m.ack(0)",   "out u.confirm",
  };
  Online o(specs::abp(), Options::io());
  for (const char* line : lines) {
    o.feed.push_line(line);
    OnlineStatus s = o.pump();
    EXPECT_NE(s, OnlineStatus::Invalid) << line;
  }
  o.feed.push_eof();
  EXPECT_EQ(o.pump(), OnlineStatus::Valid);
}

TEST(Mdfs, FiringsGeneratedBeforeTheTraceGrowsApplyAfterIt) {
  // Each put has two readings, found out only at the next echo, so every
  // put node keeps an untaken firing while its first child parks. With a
  // poll before every step and one event fed per step, that firing is
  // applied after polls have appended events to (and reallocated) the
  // trace's event store: its record parameter must be read from the
  // event as it is then, not through anything taken at generation.
  const char* spec = R"(
specification s;
channel CH(A, B); by A: put(p: Pt); ask; by B: echo(v: integer);
module M systemprocess; ip P: CH(B); end;
body MB for M;
  type Pt = record x, y: integer; end;
  var last: integer;
  state z;
  initialize to z begin last := 0; end;
  trans
    from z to z when P.put name keep_x: begin last := p.x; end;
    from z to z when P.put name keep_y: begin last := p.y; end;
    from z to z when P.ask name tell: begin output P.echo(last); end;
end;
end.
)";
  std::string text;
  for (int i = 1; i <= 24; ++i) {
    text += "in p.put((" + std::to_string(i) + ", " + std::to_string(-i) +
            "))\nin p.ask\nout p.echo(" + std::to_string(i % 3 == 0 ? -i : i) +
            ")\n";
  }
  for (const bool valid : {true, false}) {
    const est::Spec s = est::compile_spec(spec);
    tr::Trace trace = tr::parse_trace(s, text);
    if (!valid) trace = sim::mutate_last_output_param(trace);
    const DfsResult batch = analyze(s, trace, Options::full());

    tr::MemoryFeed feed(s);
    OnlineConfig config;
    config.options = Options::full();
    config.poll_every = 1;
    OnlineAnalyzer analyzer(s, feed, config);
    for (const tr::TraceEvent& e : trace.events()) {
      feed.push(e);
      (void)analyzer.step_round(1);
    }
    feed.push_eof();
    const OnlineStatus online = analyzer.run();
    EXPECT_EQ(batch.verdict, valid ? Verdict::Valid : Verdict::Invalid);
    EXPECT_EQ(online, valid ? OnlineStatus::Valid : OnlineStatus::Invalid);
    EXPECT_GT(analyzer.stats().restores, 0u);
  }
}

TEST(Mdfs, RunLoopTerminatesOnIdleSource) {
  Online o(specs::ack());
  o.feed.push_line("in a.x");
  OnlineStatus s = o.analyzer->run(4096, /*idle_rounds=*/2);
  EXPECT_EQ(s, OnlineStatus::ValidSoFar);
}

TEST(Mdfs, TransitionBudgetYieldsInconclusive) {
  Options opts = Options::none();
  opts.max_transitions = 3;
  Online o(specs::ack(), opts);
  for (const char* line :
       {"in a.x", "in a.x", "in a.x", "in b.y", "out a.ack"}) {
    o.feed.push_line(line);
  }
  o.feed.push_eof();
  EXPECT_EQ(o.pump(), OnlineStatus::Inconclusive);
}

TEST(Mdfs, StatsArePopulated) {
  Online o(specs::ack());
  o.feed.push_line("in a.x");
  o.feed.push_line("in b.y");  // will require exploring both T1/T2
  o.feed.push_line("out a.ack");
  (void)o.pump();
  EXPECT_GT(o.analyzer->stats().transitions_executed, 0u);
  EXPECT_GT(o.analyzer->stats().generates, 0u);
  EXPECT_GT(o.analyzer->stats().saves, 0u);
}

TEST(Mdfs, LateInitializerRootsHonourInitialStateSearch) {
  // The initializer's output is not in the trace when the search is
  // seeded, so its roots are expanded only when the event arrives — and
  // must still include every §2.4.1 start state: only `w` consumes m.
  Options opts = Options::none();
  opts.initial_state_search = true;
  Online o(R"(
specification s;
channel CH(A, B); by A: m; by B: r;
module M systemprocess; ip P: CH(B); end;
body MB for M;
  state z, w;
  initialize to z begin output P.r; end;
  trans from w to w when P.m name t: begin end;
end;
end.
)",
           opts);
  EXPECT_NE(o.pump(), OnlineStatus::Invalid);  // seeded, initializer pending
  o.feed.push_line("out p.r");
  o.feed.push_line("in p.m");
  o.feed.push_eof();
  EXPECT_EQ(o.pump(), OnlineStatus::Valid);
}

TEST(Mdfs, OnlineRunReportsCpuTime) {
  // `tango online` prints cpu= and TE/s from the rounds' CPU time.
  Online o(specs::lapd(), Options::full());
  const tr::Trace trace = sim::lapd_trace(o.spec, 200);
  for (const tr::TraceEvent& e : trace.events()) o.feed.push(e);
  o.feed.push_eof();
  EXPECT_EQ(o.analyzer->run(), OnlineStatus::Valid);
  EXPECT_GT(o.analyzer->stats().cpu_seconds, 0.0);
}

// --- release path: a node's last firing runs on the node's own state ----

/// What a scenario ends with; compared between the checkpoint modes.
struct Outcome {
  std::vector<OnlineStatus> statuses;  // after each pump
  Stats stats;
};

/// Runs `scenario` under trail and copy checkpointing and expects the
/// same statuses and TE/GE/RE/SA/max_depth; returns the trail run's.
Outcome agree_with_copy(
    std::string_view spec, Options options,
    const std::function<void(Online&, Outcome&)>& scenario) {
  Outcome got[2];
  for (const CheckpointMode mode :
       {CheckpointMode::Trail, CheckpointMode::Copy}) {
    options.checkpoint = mode;
    Online o(spec, options);
    Outcome& out = got[mode == CheckpointMode::Copy];
    scenario(o, out);
    out.stats = o.analyzer->stats();
  }
  EXPECT_EQ(got[0].statuses, got[1].statuses);
  EXPECT_EQ(got[0].stats.transitions_executed,
            got[1].stats.transitions_executed);
  EXPECT_EQ(got[0].stats.generates, got[1].stats.generates);
  EXPECT_EQ(got[0].stats.restores, got[1].stats.restores);
  EXPECT_EQ(got[0].stats.saves, got[1].stats.saves);
  EXPECT_EQ(got[0].stats.max_depth, got[1].stats.max_depth);
  // Trail mode copies only the root; copy mode copies at every save.
  EXPECT_LT(got[0].stats.checkpoint_bytes, got[1].stats.checkpoint_bytes);
  return got[0];
}

TEST(MdfsRelease, RetryLaterOnLastFiringRestoresAndParksTheNode) {
  // The root's one firing counts x up and outputs it before the trace has
  // recorded the output: the firing fails with retry_later. The root must
  // get back its untouched state (x = 0, m unconsumed), park, and offer t
  // again when the output arrives; a root left at x = 1 would output r(2).
  const char* spec = R"(
specification s;
channel CH(A, B); by A: m; by B: r(v: integer);
module M systemprocess; ip P: CH(B); end;
body MB for M;
  var x: integer;
  state z;
  initialize to z begin x := 0; end;
  trans from z to z when P.m name t: begin x := x + 1; output P.r(x); end;
end;
end.
)";
  const Outcome out =
      agree_with_copy(spec, Options::none(), [](Online& o, Outcome& out) {
        o.feed.push_line("in p.m");
        out.statuses.push_back(o.pump());
        out.statuses.push_back(o.pump());  // no new data: stays parked
        o.feed.push_line("out p.r(1)");
        out.statuses.push_back(o.pump());
        o.feed.push_eof();
        out.statuses.push_back(o.pump());
      });
  EXPECT_EQ(out.statuses,
            (std::vector<OnlineStatus>{
                OnlineStatus::LikelyInvalid, OnlineStatus::LikelyInvalid,
                OnlineStatus::ValidSoFar, OnlineStatus::Valid}));
  // The initializer, then t twice: the retry, then the match.
  EXPECT_EQ(out.stats.transitions_executed, 3u);
}

TEST(MdfsRelease, EofArrivesWhileReleasedNodesAreOnTheStack) {
  // A linear LAPD run stopped a few steps in: the nodes below the top
  // have handed their states down. eof arrives before the search goes on.
  const tr::Trace trace =
      sim::lapd_trace(est::compile_spec(specs::lapd()), 20);
  const Outcome out = agree_with_copy(
      specs::lapd(), Options::full(), [&](Online& o, Outcome& out) {
        for (const tr::TraceEvent& e : trace.events()) o.feed.push(e);
        out.statuses.push_back(o.analyzer->step_round(9));
        o.feed.push_eof();
        out.statuses.push_back(o.pump());
      });
  EXPECT_EQ(out.statuses.back(), OnlineStatus::Valid);
  EXPECT_GT(out.stats.max_depth, 9);
}

TEST(MdfsRelease, DepthClipUnderAReleasedParent) {
  // --max-depth abandons the child a released parent handed its state to;
  // the parent's tombstone still backtracks and the run ends the same way
  // in both modes.
  Options options = Options::full();
  options.max_depth = 5;
  const tr::Trace trace =
      sim::lapd_trace(est::compile_spec(specs::lapd()), 20);
  const Outcome out =
      agree_with_copy(specs::lapd(), options, [&](Online& o, Outcome& out) {
        for (const tr::TraceEvent& e : trace.events()) o.feed.push(e);
        o.feed.push_eof();
        out.statuses.push_back(o.pump());
      });
  EXPECT_EQ(out.statuses.back(), OnlineStatus::Invalid);
  EXPECT_EQ(out.stats.max_depth, 5);
}

}  // namespace
}  // namespace tango::core
