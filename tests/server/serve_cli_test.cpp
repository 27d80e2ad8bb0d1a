// `tango serve` / `tango submit` / `--version` / `analyze -` through the
// real binary (TANGO_CLI_PATH): the parseable listening line, end-to-end
// loopback submits with their exit codes, the SIGTERM graceful drain
// (exit 0 after serving), and the stdin trace path shared with shell
// pipelines.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run_shell(const std::string& command) {
  RunResult r;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
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

RunResult run_cli(const std::string& args) {
  return run_shell(std::string(TANGO_CLI_PATH) + " " + args);
}

std::string valid_trace() {
  return std::string(TANGO_TRACES_DIR) + "/abp_valid.tr";
}

/// A `tango serve` child on an ephemeral port: forks, parses the
/// listening line for the port, and reaps on destruction.
class ServeProcess {
 public:
  explicit ServeProcess(const char* extra_flag = nullptr) {
    int fds[2];
    if (pipe(fds) != 0) return;
    pid_ = fork();
    if (pid_ == 0) {
      // Exec the binary directly (no shell in between): the SIGTERM test
      // must deliver the signal to `tango serve` itself.
      dup2(fds[1], STDOUT_FILENO);
      dup2(fds[1], STDERR_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(TANGO_CLI_PATH, TANGO_CLI_PATH, "serve", "--listen=127.0.0.1:0",
            "--workers=2", extra_flag, static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    out_ = fds[0];
    // First line: "tango <ver> listening on 127.0.0.1:<port> (...)".
    std::string line;
    char ch;
    while (read(out_, &ch, 1) == 1 && ch != '\n') line.push_back(ch);
    const std::size_t colon = line.rfind("127.0.0.1:");
    if (colon != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::strtoul(line.c_str() + colon + 10, nullptr, 10));
    }
    banner_ = line;
  }

  ~ServeProcess() {
    if (out_ >= 0) close(out_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);  // no-op when already reaped by wait()
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  /// Sends SIGTERM (when `term` is set) and reaps; returns the exit code
  /// (-1 on abnormal death).
  int wait(bool term) {
    if (term) kill(pid_, SIGTERM);
    int status = 0;
    if (waitpid(pid_, &status, 0) != pid_) return -1;
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& banner() const { return banner_; }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
  std::string banner_;
};

TEST(CliVersion, VersionFlagReportsBuildAndProtocol) {
  const RunResult r = run_cli("--version");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("tango 0."), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("server protocol"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("events schema"), std::string::npos) << r.output;
  // `tango version` is the spelled-out alias.
  EXPECT_EQ(run_cli("version").output, r.output);
}

TEST(CliStdin, AnalyzeDashReadsTheTraceFromStdin) {
  const RunResult r = run_shell("cat " + valid_trace() + " | " +
                                TANGO_CLI_PATH + " analyze builtin:abp -");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verdict: valid"), std::string::npos) << r.output;
}

TEST(CliServe, BannerIsParseableAndSubmitRoundTrips) {
  ServeProcess serve("--max-sessions=2");
  ASSERT_NE(serve.port(), 0) << serve.banner();
  EXPECT_NE(serve.banner().find("listening on"), std::string::npos);
  EXPECT_NE(serve.banner().find("specs"), std::string::npos);

  const std::string connect =
      " --connect=127.0.0.1:" + std::to_string(serve.port());
  const RunResult valid =
      run_cli("submit " + valid_trace() + connect + " --spec=builtin:abp");
  EXPECT_EQ(valid.exit_code, 0) << valid.output;
  EXPECT_NE(valid.output.find("verdict: valid"), std::string::npos)
      << valid.output;

  const RunResult invalid = run_cli(
      "submit " + std::string(TANGO_TRACES_DIR) + "/abp_invalid.tr" + connect +
      " --spec=builtin:abp");
  EXPECT_EQ(invalid.exit_code, 1) << invalid.output;  // non-valid exits 1

  // --max-sessions=2 served: the daemon exits 0 on its own.
  EXPECT_EQ(serve.wait(/*term=*/false), 0);
}

TEST(CliServe, SigtermDrainsAndExitsZero) {
  ServeProcess serve;
  ASSERT_NE(serve.port(), 0) << serve.banner();
  const RunResult r = run_cli(
      "submit " + valid_trace() + " --connect=127.0.0.1:" +
      std::to_string(serve.port()) + " --spec=builtin:abp --chunk-size=2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(serve.wait(/*term=*/true), 0);
}

// submit used to forward only the order, hash_states, budgets and jobs:
// an ip option the session never saw was silently ignored.
TEST(CliSubmit, OptionErrorsMatchAnalyze) {
  ServeProcess serve("--max-sessions=2");
  ASSERT_NE(serve.port(), 0) << serve.banner();
  for (const char* flag : {" --disable-ip=nosuch", " --unobservable-ip=m"}) {
    const RunResult analyze =
        run_cli("analyze builtin:abp " + valid_trace() + flag);
    ASSERT_EQ(analyze.exit_code, 2) << analyze.output;
    const std::string message =
        analyze.output.substr(analyze.output.find(": ") + 2);
    const RunResult submit =
        run_cli("submit " + valid_trace() + " --connect=127.0.0.1:" +
                std::to_string(serve.port()) + " --spec=builtin:abp" + flag);
    EXPECT_EQ(submit.exit_code, 2) << submit.output;
    EXPECT_NE(submit.output.find(message), std::string::npos)
        << submit.output << " vs " << message;
  }
  EXPECT_EQ(serve.wait(/*term=*/false), 0);
}

// A client's budget used to replace the server's; now the tighter wins.
TEST(CliServe, ServerBudgetCapsTheClient) {
  ServeProcess serve("--max-transitions=1");
  ASSERT_NE(serve.port(), 0) << serve.banner();
  const RunResult r = run_cli(
      "submit " + valid_trace() + " --connect=127.0.0.1:" +
      std::to_string(serve.port()) +
      " --spec=builtin:abp --max-transitions=1000000");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("verdict: inconclusive"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("transitions"), std::string::npos) << r.output;
  EXPECT_EQ(serve.wait(/*term=*/true), 0);
}

// The trace text used to be read by four copies of the line rules:
// `online` ignored events after `eof`, an online submit analyzed them, and
// `online` never saw an `eof` on an unterminated last line.
TEST(CliSubmit, TraceTextGetsOneAnswerOnEverySurface) {
  const std::string dir = testing::TempDir();
  const std::string after_eof = dir + "/tango_after_eof.tr";
  std::ofstream(after_eof, std::ios::binary)
      << "in  u.send(5)\nout m.frame(0, 5)\nout m.frame(0, 5)\n"
         "in  m.ack(0)\nout u.confirm\neof\nout u.confirm\n";
  const std::string unterminated = dir + "/tango_unterminated.tr";
  std::ofstream(unterminated, std::ios::binary)
      << "in  u.send(5)\nout m.frame(0, 5)\nin  m.ack(0)\nout u.confirm\neof";

  ServeProcess serve;
  ASSERT_NE(serve.port(), 0) << serve.banner();
  const std::string connect = " --connect=127.0.0.1:" +
                              std::to_string(serve.port()) +
                              " --spec=builtin:abp";
  for (const std::string& trace : {after_eof, unterminated}) {
    SCOPED_TRACE(trace);
    const RunResult analyze = run_cli("analyze builtin:abp " + trace);
    // "verdict: <v>" or the error after "tango: ".
    const std::string answer =
        analyze.output.substr(0, analyze.output.find('\n') + 1)
            .substr(analyze.exit_code == 2 ? 7 : 0);
    // Whole texts: an on-line session ends at its `eof`, so a line sent in
    // a later chunk may arrive after the verdict (TraceSurfaces.* feed the
    // sources split texts directly).
    for (const std::string& args :
         {"online builtin:abp " + trace, "submit " + trace + connect,
          "submit " + trace + connect + " --static"}) {
      // `online` waits for a trace to grow until it sees its `eof`.
      const RunResult r =
          run_shell("timeout 30 " + std::string(TANGO_CLI_PATH) + " " + args);
      EXPECT_EQ(r.exit_code, analyze.exit_code) << args << "\n" << r.output;
      EXPECT_NE(r.output.find(answer), std::string::npos)
          << args << "\n" << r.output << " vs " << answer;
    }
  }
  EXPECT_EQ(serve.wait(/*term=*/true), 0);
}

TEST(CliSubmit, ConnectionRefusedIsATransportError) {
  // Port 1 on loopback: nothing listens there.
  const RunResult r = run_cli("submit " + valid_trace() +
                              " --connect=127.0.0.1:1 --spec=builtin:abp");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("tango:"), std::string::npos) << r.output;
}

TEST(CliSubmit, MissingConnectFlagIsAUsageError) {
  const RunResult r = run_cli("submit " + valid_trace());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--connect"), std::string::npos) << r.output;
}

}  // namespace
