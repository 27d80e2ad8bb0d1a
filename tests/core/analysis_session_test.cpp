// An on-line analysis session: core::OnlineAnalyzer driven the way the
// server drives it over a socket-fed ChunkSource — bounded pumps, interim
// assessment *edges* (reported once per change, not once per poll), and
// the cooperative abort that concludes Inconclusive reason "shutdown".
#include "core/mdfs.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/verdict.hpp"
#include "estelle/spec.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/dynamic_source.hpp"

namespace tango::core {
namespace {

std::string golden(const std::string& name) {
  std::ifstream file(std::string(TANGO_TRACES_DIR) + "/" + name);
  EXPECT_TRUE(file.good()) << name;
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

est::Spec abp_spec() { return est::compile_spec(specs::builtin_spec("abp")); }

OnlineConfig io_config() {
  OnlineConfig cfg;
  cfg.options = Options::io();
  cfg.options.max_transitions = 200'000;
  return cfg;
}

TEST(AnalysisSession, PumpsAGrownTraceToItsVerdict) {
  const est::Spec spec = abp_spec();
  tr::ChunkSource source(spec);
  OnlineAnalyzer session(spec, source, io_config());

  source.push_chunk(golden("abp_valid.tr"));  // carries its own eof line
  while (!session.conclusive()) session.step_round(64);
  EXPECT_EQ(session.status(), OnlineStatus::Valid);
  EXPECT_GT(session.stats().transitions_executed, 0u);
}

TEST(AnalysisSession, ReportsAssessmentEdgesOncePerChange) {
  const est::Spec spec = abp_spec();
  tr::ChunkSource source(spec);
  OnlineAnalyzer session(spec, source, io_config());

  // Feed a valid prefix without eof: the session quiesces ValidSoFar.
  std::string text = golden("abp_valid.tr");
  text = text.substr(0, text.find("eof"));
  source.push_chunk(text);
  for (int i = 0; i < 64; ++i) session.step_round(4096);
  ASSERT_EQ(session.status(), OnlineStatus::ValidSoFar);

  OnlineStatus edge = OnlineStatus::Searching;
  ASSERT_TRUE(session.take_status_change(edge));
  EXPECT_EQ(edge, OnlineStatus::ValidSoFar);
  // The same status is not an edge the second time...
  EXPECT_FALSE(session.take_status_change(edge));

  // ...but the conclusive transition at eof is.
  source.push_eof();
  while (!session.conclusive()) session.step_round(4096);
  ASSERT_TRUE(session.take_status_change(edge));
  EXPECT_EQ(edge, OnlineStatus::Valid);
}

TEST(AnalysisSession, AbortConcludesInconclusiveShutdown) {
  const est::Spec spec = abp_spec();
  tr::ChunkSource source(spec);
  OnlineAnalyzer session(spec, source, io_config());

  std::string text = golden("abp_valid.tr");
  source.push_chunk(text.substr(0, text.find("eof")));
  session.step_round(4096);
  ASSERT_FALSE(session.conclusive());

  session.abort(InconclusiveReason::Shutdown);
  EXPECT_TRUE(session.conclusive());
  EXPECT_EQ(session.status(), OnlineStatus::Inconclusive);
  EXPECT_EQ(session.stats().reason, InconclusiveReason::Shutdown);

  // Conclusive statuses are sticky: pumps and aborts are no-ops now.
  session.step_round(4096);
  session.abort(InconclusiveReason::Deadline);
  EXPECT_EQ(session.stats().reason, InconclusiveReason::Shutdown);
  session.finalize_stream();  // idempotent without a sink
  session.finalize_stream();
}

TEST(AnalysisSession, AbortNeverDowngradesAConclusiveVerdict) {
  const est::Spec spec = abp_spec();
  tr::ChunkSource source(spec);
  OnlineAnalyzer session(spec, source, io_config());
  source.push_chunk(golden("abp_valid.tr"));
  while (!session.conclusive()) session.step_round(4096);
  ASSERT_EQ(session.status(), OnlineStatus::Valid);
  session.abort(InconclusiveReason::Shutdown);
  EXPECT_EQ(session.status(), OnlineStatus::Valid);
}

}  // namespace
}  // namespace tango::core
