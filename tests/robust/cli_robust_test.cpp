// CLI hardening (exercises the real `tango` binary): the validating
// numeric-flag parsers (bad/overflowing values are usage errors, exit 2,
// never a std::stoi crash), the --visited-max-without---hash-states
// diagnosis, and the resource flags' end-to-end surface (reason line,
// batch JSON). TANGO_CLI_PATH and TANGO_TRACES_DIR come from CMake.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run_cli(const std::string& args) {
  const std::string command = std::string(TANGO_CLI_PATH) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    r.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string valid_trace() {
  return std::string(TANGO_TRACES_DIR) + "/abp_valid.tr";
}

TEST(CliRobust, NonNumericFlagValueIsAUsageError) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --jobs=abc");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--jobs"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("abc"), std::string::npos) << r.output;
}

TEST(CliRobust, NegativeFlagValueIsAUsageError) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --max-depth=-5");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("non-negative"), std::string::npos) << r.output;
}

TEST(CliRobust, OverflowingFlagValueIsAUsageErrorNotACrash) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --max-depth=99999999999999999999999");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("out of range"), std::string::npos) << r.output;
}

TEST(CliRobust, EmptyFlagValueIsAUsageError) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --deadline=");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(CliRobust, VisitedMaxWithoutHashStatesIsDiagnosed) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --visited-max=100");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--hash-states"), std::string::npos) << r.output;
}

TEST(CliRobust, VisitedMaxWithHashStatesIsAccepted) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --hash-states --visited-max=100");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verdict: valid"), std::string::npos) << r.output;
}

TEST(CliRobust, ExhaustedBudgetPrintsItsReason) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --max-transitions=1");
  EXPECT_EQ(r.exit_code, 1) << r.output;  // non-valid verdicts exit 1
  EXPECT_NE(r.output.find("verdict: inconclusive"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("reason:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("transitions"), std::string::npos) << r.output;
}

TEST(CliRobust, ResourceFlagsAreAccepted) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --deadline=60000 --max-memory=100000000");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verdict: valid"), std::string::npos) << r.output;
}

// --order= used to assign a whole preset, silently undoing every analysis
// flag before it: a budget written first was lifted again.
TEST(CliRobust, OrderKeepsEarlierFlags) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --max-transitions=1 --order=full");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("verdict: inconclusive"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("transitions"), std::string::npos) << r.output;

  const std::filesystem::path events =
      std::filesystem::path(testing::TempDir()) / "cli_robust_order.jsonl";
  const RunResult hashed = run_cli(
      "analyze builtin:abp " + valid_trace() +
      " --hash-states --visited-max=10 --order=io --events " +
      events.string());
  EXPECT_EQ(hashed.exit_code, 0) << hashed.output;
  std::ifstream in(events);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("\"hash_states\":true"), std::string::npos)
      << header;
  EXPECT_NE(header.find("\"visited_max\":10"), std::string::npos) << header;
  std::filesystem::remove(events);
}

// --all-orders used to keep only --max-transitions from the command line.
TEST(CliRobust, AllOrdersKeepsEveryOtherOption) {
  const RunResult r =
      run_cli("analyze builtin:tp0 " + std::string(TANGO_TRACES_DIR) +
              "/tp0_valid.tr --all-orders --max-depth=2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* mode : {"NR ", "IO ", "IP ", "FULL "}) {
    const std::size_t row = r.output.find(std::string("\n") + mode);
    ASSERT_NE(row, std::string::npos) << mode << r.output;
    const std::string line =
        r.output.substr(row + 1, r.output.find('\n', row + 1) - row - 1);
    EXPECT_NE(line.find("inconclusive"), std::string::npos) << line;
  }
}

TEST(CliRobust, DeterministicAppliesWithOneJob) {
  // --deterministic is honoured at --jobs=1 too: the stream's run header
  // names the work-stealing schedule ("par"), not the inline search.
  const std::filesystem::path events =
      std::filesystem::path(testing::TempDir()) / "cli_robust_det.jsonl";
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() +
                              " --deterministic --jobs=1 --events " +
                              events.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(events);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("\"engine\":\"par\""), std::string::npos) << header;
  std::filesystem::remove(events);
}

TEST(CliRobust, BatchJsonReportsPerItemVerdicts) {
  const RunResult r = run_cli(
      "analyze builtin:abp --batch " + std::string(TANGO_TRACES_DIR) +
      " --format=json --deadline=60000");
  // The corpus mixes specs, so foreign traces are per-item errors — the
  // batch still completes and reports every file.
  EXPECT_NE(r.output.find("\"items\":["), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("abp_valid.tr"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"verdict\":\"valid\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"summary\":"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("\"attempts\""), std::string::npos) << r.output;
}

TEST(CliRobust, UnknownSingleDashWordIsAUsageError) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() + " -v");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown option '-v'"), std::string::npos)
      << r.output;
}

// Usage errors have no source position to print, and a suggestion must
// share a letter with the typo: "-v" once printed
// "tango: ?: unknown option '-v' (did you mean '-o'?)".
TEST(CliRobust, UsageErrorsPrintNoLocationNorAnUnrelatedSuggestion) {
  const RunResult r = run_cli("analyze builtin:abp " + valid_trace() + " -v");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_EQ(r.output, "tango: unknown option '-v'\n");
  for (const std::string& args :
       {std::string("analyze builtin:abp none.tr --max-depth=-5"),
        std::string("analyze builtin:abp none.tr --order"),
        std::string("analyze builtin:nosuch x.tr"),
        std::string("workload sideways"), std::string("submit x.tr"),
        "analyze builtin:abp " + valid_trace() + " --disable-ip=zz",
        "online builtin:abp " + valid_trace() + " --unobservable-ip=zz"}) {
    const RunResult u = run_cli(args);
    EXPECT_EQ(u.exit_code, 2) << args << ": " << u.output;
    EXPECT_EQ(u.output.find("?:"), std::string::npos) << args << ": "
                                                      << u.output;
  }
  EXPECT_EQ(run_cli("analyze builtin:abp " + valid_trace() +
                    " --disable-ip=zz")
                .output,
            "tango: disable-ip option names unknown ip 'zz'\n");
}

TEST(CliRobust, ItemRetriesIsNoLongerAnOption) {
  const RunResult r = run_cli("analyze builtin:abp --batch " +
                              std::string(TANGO_TRACES_DIR) +
                              " --item-retries=1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown option"), std::string::npos) << r.output;
}

// A malformed step field in a simulate script used to surface as a bare
// std::stoull exception ("tango: stoull"); it is now a positioned
// diagnostic naming the offending token.
TEST(CliRobust, SimulateScriptBadStepIsAPositionedDiagnostic) {
  const std::filesystem::path script =
      std::filesystem::path(testing::TempDir()) / "cli_robust_bad.script";
  {
    FILE* f = fopen(script.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("abc u.send(0)\n", f);
    fclose(f);
  }
  const RunResult r =
      run_cli("simulate builtin:abp --script " + script.string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("non-negative integer"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("abc"), std::string::npos) << r.output;
  std::filesystem::remove(script);
}

// Regression: a stream written into --events-dir used to record the
// trace_ref relative to the *cwd*, but replay resolves it relative to the
// stream's directory — so batch streams only replayed when the two
// happened to coincide. The recorder now rebases the ref onto the stream
// directory, making the sidecars replayable from anywhere.
TEST(CliRobust, BatchEventStreamsAreReplayable) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "cli_robust_streams";
  std::filesystem::remove_all(dir);
  const RunResult batch = run_cli(
      "analyze builtin:abp --batch " + std::string(TANGO_TRACES_DIR) +
      " --events-dir=" + dir.string());
  ASSERT_TRUE(std::filesystem::exists(dir / "abp_valid.jsonl")) << batch.output;
  const RunResult check =
      run_cli("events check " + (dir / "abp_valid.jsonl").string());
  EXPECT_EQ(check.exit_code, 0) << check.output;
  const RunResult replay =
      run_cli("events replay " + (dir / "abp_valid.jsonl").string());
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_EQ(replay.output.find("cannot open"), std::string::npos)
      << replay.output;
  std::filesystem::remove_all(dir);
}

}  // namespace
