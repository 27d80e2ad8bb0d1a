// Batch front-end degradation (docs/ROBUSTNESS.md): one failing corpus
// entry must never take the others down. Fault injection forces the
// degradation paths — an allocation failure, an injected per-item
// deadline — and each test asserts the faulted item degrades alone while
// its neighbours' results match an unfaulted run. Faults in specification
// code never reach the batch: they end their path, and the item is
// Invalid with a note, in every build type.
#include <gtest/gtest.h>

#include <new>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/parallel_dfs.hpp"
#include "obs/sink.hpp"
#include "sim/mutate.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango::core {
namespace {

class BatchRobust : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFaultInjectionAvailable) {
      GTEST_SKIP() << "fault injection is compiled out in NDEBUG builds";
    }
    FaultInjector::instance().reset();
  }
  void TearDown() override {
    if (kFaultInjectionAvailable) FaultInjector::instance().reset();
  }
};

struct Corpus {
  est::Spec spec;
  std::vector<tr::Trace> traces;
};

Corpus tp0_corpus() {
  Corpus c{est::compile_spec(specs::builtin_spec("tp0")), {}};
  c.traces.push_back(sim::tp0_paper_trace(c.spec, 3));
  c.traces.push_back(
      sim::mutate_last_output_param(sim::tp0_paper_trace(c.spec, 3)));
  c.traces.push_back(sim::tp0_paper_trace(c.spec, 5));
  return c;
}

TEST_F(BatchRobust, AllocFaultIsolatesToItsItem) {
  Corpus c = tp0_corpus();
  Options options = Options::io();
  options.jobs = 2;
  // Copy-mode save() probes `alloc`; the trail's O(1) save() does not.
  options.checkpoint = CheckpointMode::Copy;
  const auto clean = analyze_batch(c.spec, c.traces, options);

  FaultInjector::instance().configure("alloc@item:1");
  const auto faulted = analyze_batch(c.spec, c.traces, options);
  ASSERT_EQ(faulted.size(), clean.size());

  EXPECT_EQ(faulted[1].error, std::bad_alloc().what());
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_TRUE(faulted[i].error.empty()) << "item " << i;
    EXPECT_EQ(faulted[i].result.verdict, clean[i].result.verdict)
        << "item " << i;
    EXPECT_EQ(faulted[i].result.stats.transitions_executed,
              clean[i].result.stats.transitions_executed)
        << "item " << i;
  }
}

TEST_F(BatchRobust, InjectedDeadlineDegradesOneItemToInconclusive) {
  // The issue's acceptance shape: one item forced over its deadline ends
  // Inconclusive(reason=deadline) in the batch result AND on its verdict
  // event; every other item matches the unfaulted run.
  Corpus c = tp0_corpus();
  Options options = Options::io();
  options.jobs = 2;
  const auto clean = analyze_batch(c.spec, c.traces, options);

  options.deadline_ms = 60'000;
  FaultInjector::instance().configure("deadline@item:1");
  std::vector<obs::MemorySink> sinks(c.traces.size());
  std::vector<obs::Sink*> sink_ptrs;
  for (auto& s : sinks) sink_ptrs.push_back(&s);
  const auto faulted = analyze_batch(c.spec, c.traces, options, sink_ptrs);
  ASSERT_EQ(faulted.size(), clean.size());

  EXPECT_TRUE(faulted[1].error.empty());
  EXPECT_EQ(faulted[1].result.verdict, Verdict::Inconclusive);
  EXPECT_EQ(faulted[1].result.reason, InconclusiveReason::Deadline);
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_EQ(faulted[i].result.verdict, clean[i].result.verdict)
        << "item " << i;
    EXPECT_EQ(faulted[i].result.reason, InconclusiveReason::None)
        << "item " << i;
  }
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    std::string reason;
    for (const obs::Event& e : sinks[i].events()) {
      if (e.kind == obs::EventKind::Verdict) reason = e.reason;
    }
    EXPECT_EQ(reason, i == 1 ? "deadline" : "") << "item " << i;
  }
}

// Plain TEST: needs no injection, so it runs in NDEBUG builds too.
TEST(BatchDeadline, PerItemDeadlineClockStartsPerItem) {
  // A real (uninjected) per-item deadline: each item gets its own clock,
  // so a generous budget passes every small item even though the batch as
  // a whole takes longer than any single analysis.
  Corpus c = tp0_corpus();
  Options options = Options::io();
  options.jobs = 1;
  options.deadline_ms = 60'000;
  const auto results = analyze_batch(c.spec, c.traces, options);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].error.empty()) << "item " << i;
    EXPECT_NE(results[i].result.verdict, Verdict::Inconclusive)
        << "item " << i;
  }
}

/// One module whose `zero` is 0, with a division by it spliced into the
/// initializer, the provided clause or the body of its one transition.
std::string div_by_zero_spec(const std::string& init, const std::string& guard,
                             const std::string& body) {
  return "specification faulty;\n"
         "channel C(Env, Sys);\n  by Env: x(v: integer);\n  by Sys: y;\n"
         "module M systemprocess;\n  ip A: C(Sys);\nend;\n"
         "body MB for M;\nvar zero: integer;\nstate s;\n"
         "initialize to s begin zero := 0; " + init + " end;\n"
         "trans\nfrom s to s when A.x " + guard + " name t:\n"
         "begin " + body + " output A.y; end;\n"
         "end;\nend.\n";
}

// Plain TEST: a fault in specification code needs no injection, so this
// runs in NDEBUG builds too. The search ends the faulting path with a
// note and the item is Invalid; nothing reaches the batch as an error.
TEST(BatchSpecFaults, DivisionByZeroEndsTheItemInvalidWithANote) {
  struct Case {
    const char* where;
    std::string init, guard, body;
  };
  const Case cases[] = {
      {"provided clause", "", "provided v div zero = 1", ""},
      {"transition body", "", "", "zero := v div zero;"},
      {"initializer", "zero := 1 div zero;", "", ""},
  };
  Options options = Options::io();
  options.jobs = 2;
  for (const Case& k : cases) {
    const est::Spec spec =
        est::compile_spec(div_by_zero_spec(k.init, k.guard, k.body));
    const std::vector<tr::Trace> traces = {
        tr::parse_trace(spec, "in A.x(1)\nout A.y\n"),
        tr::parse_trace(spec, "in A.x(2)\nout A.y\n")};
    const auto results = analyze_batch(spec, traces, options);
    ASSERT_EQ(results.size(), traces.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const DfsResult& r = results[i].result;
      EXPECT_EQ(results[i].error, "") << k.where << ", item " << i;
      EXPECT_EQ(r.verdict, Verdict::Invalid) << k.where << ", item " << i;
      EXPECT_NE(r.note.find("division by zero"), std::string::npos)
          << k.where << ", item " << i << ": " << r.note;
    }
  }
}

}  // namespace
}  // namespace tango::core
