// End-to-end loopback coverage of the analysis server (docs/SERVER.md):
// verdict parity between served sessions and one-shot analysis for every
// golden x order preset, in single-chunk, trickled and static modes, and
// for 1 to 16 concurrent clients; the interim-assessment stream on a slow
// trickle; overload backpressure; cancel; mid-chunk disconnects (clean
// teardown, checked by the sanitizer jobs via label `server`); and
// per-session fault injection. The server runs in-process on an
// ephemeral port, so tests control the registry, session ids and the
// fault injector directly.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dfs.hpp"
#include "core/parallel_dfs.hpp"
#include "core/fault.hpp"
#include "core/option_table.hpp"
#include "obs/json.hpp"
#include "server/client.hpp"
#include "server/framing.hpp"
#include "server/net.hpp"
#include "server/registry.hpp"
#include "trace/trace_io.hpp"

namespace tango::srv {
namespace {

struct Golden {
  const char* trace_file;
  const char* spec_ref;
  const char* spec_name;
  const char* expected;  // verdict token, identical across presets
};

constexpr Golden kGoldens[] = {
    {"abp_valid.tr", "builtin:abp", "abp", "valid"},
    {"abp_invalid.tr", "builtin:abp", "abp", "invalid"},
    {"ack_paper.tr", "builtin:ack", "ack", "valid"},
    {"inres_valid.tr", "builtin:inres", "inres", "valid"},
    {"tp0_valid.tr", "builtin:tp0", "tp0", "valid"},
};

constexpr const char* kOrders[] = {"none", "io", "ip", "full"};

std::string read_file(const std::string& name) {
  std::ifstream file(std::string(TANGO_TRACES_DIR) + "/" + name);
  EXPECT_TRUE(file.good()) << name;
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

/// One server shared by the whole parity suite; sessions are independent,
/// so reuse just saves 60 startups' worth of spec compilation.
class ServerLoopback : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    auto registry =
        std::make_shared<const SpecRegistry>(SpecRegistry::with_builtins());
    ServerConfig config;
    config.workers = 4;
    server_ = new Server(std::move(registry), config);
    server_->start();
  }
  static void TearDownTestSuite() {
    server_->shutdown();
    delete server_;
    server_ = nullptr;
  }
  static Server* server_;
};

Server* ServerLoopback::server_ = nullptr;

SubmitOptions base_options(const Golden& g, const char* order) {
  SubmitOptions o;
  o.port = ServerLoopback::server_->port();
  o.spec = g.spec_ref;
  o.order = order;
  o.options.max_transitions = 200'000;
  return o;
}

/// A server of its own for tests that need other session defaults; its
/// sessions record event streams to `events_dir` when that is non-empty.
class PrivateServer {
 public:
  explicit PrivateServer(const core::Options& defaults,
                         const std::string& events_dir = "")
      : server_(std::make_shared<const SpecRegistry>(
                    SpecRegistry::with_builtins()),
                config(defaults, events_dir)) {
    server_.start();
  }
  ~PrivateServer() { stop(); }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  /// Joins the workers, so every session's event stream is complete.
  void stop() { server_.shutdown(); }

 private:
  static ServerConfig config(const core::Options& defaults,
                             const std::string& events_dir) {
    ServerConfig c;
    c.session.default_options = defaults;
    c.session.events_dir = events_dir;
    return c;
  }
  Server server_;
};

std::string events_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / ("loopback_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The run header of a session's recorded event stream.
obs::JsonValue run_header(const std::string& dir, std::uint64_t session) {
  std::ifstream in(dir + "/session-" + std::to_string(session) + ".jsonl");
  std::string line;
  std::getline(in, line);
  return obs::parse_json(line);
}

TEST_F(ServerLoopback, SingleChunkOnlineMatchesOneShotVerdicts) {
  for (const Golden& g : kGoldens) {
    const std::string text = read_file(g.trace_file);
    for (const char* order : kOrders) {
      const SubmitResult r = submit_trace(text, base_options(g, order));
      ASSERT_TRUE(r.completed) << g.trace_file << " " << order << ": "
                               << r.error;
      EXPECT_EQ(r.final_status, g.expected) << g.trace_file << " " << order;
      EXPECT_EQ(r.server_version, "0.10.0");
      EXPECT_NE(r.stats_json.find("\"te\""), std::string::npos)
          << r.stats_json;
    }
  }
}

TEST_F(ServerLoopback, TrickledOnlineMatchesOneShotVerdicts) {
  for (const Golden& g : kGoldens) {
    const std::string text = read_file(g.trace_file);
    for (const char* order : kOrders) {
      SubmitOptions o = base_options(g, order);
      o.chunk_size = 1;  // one event line per chunk frame
      const SubmitResult r = submit_trace(text, o);
      ASSERT_TRUE(r.completed) << g.trace_file << " " << order << ": "
                               << r.error;
      EXPECT_EQ(r.final_status, g.expected) << g.trace_file << " " << order;
    }
  }
}

TEST_F(ServerLoopback, StaticModeMatchesOneShotVerdicts) {
  for (const Golden& g : kGoldens) {
    const std::string text = read_file(g.trace_file);
    for (const char* order : kOrders) {
      SubmitOptions o = base_options(g, order);
      o.mode = "static";
      const SubmitResult r = submit_trace(text, o);
      ASSERT_TRUE(r.completed) << g.trace_file << " " << order << ": "
                               << r.error;
      EXPECT_EQ(r.final_status, g.expected) << g.trace_file << " " << order;
    }
  }
}

TEST_F(ServerLoopback, StaticModeWithJobsRunsTheParallelEngine) {
  // A hello's jobs is capped by the server's, so this session needs a
  // server configured like `tango serve --jobs=4`.
  const std::string dir = events_dir("static_jobs");
  core::Options defaults;
  defaults.jobs = 4;
  PrivateServer server(defaults, dir);
  const Golden& g = kGoldens[0];
  SubmitOptions o = base_options(g, "io");
  o.port = server.port();
  o.mode = "static";
  o.options.jobs = 4;
  const SubmitResult r = submit_trace(read_file(g.trace_file), o);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.final_status, "valid");
  server.stop();
  const obs::JsonValue header = run_header(dir, r.session_id);
  EXPECT_EQ(header.find("engine")->string, "par");
  EXPECT_EQ(header.find("flags")->find("jobs")->integer, 4);
}

TEST_F(ServerLoopback, SlowTrickleReportsInterimAssessments) {
  SubmitOptions o = base_options(kGoldens[0], "io");  // abp_valid
  o.chunk_size = 1;
  o.chunk_delay_ms = 15;  // let MDFS quiesce between growths
  const SubmitResult r = submit_trace(read_file(kGoldens[0].trace_file), o);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.final_status, "valid");
  ASSERT_FALSE(r.interim.empty());
  for (const std::string& s : r.interim) {
    EXPECT_TRUE(s == "valid so far" || s == "likely invalid") << s;
  }
  EXPECT_EQ(r.interim.front(), "valid so far");
}

TEST_F(ServerLoopback, UnknownSpecIsAStructuredError) {
  SubmitOptions o = base_options(kGoldens[0], "io");
  o.spec = "builtin:does-not-exist";
  const SubmitResult r = submit_trace(read_file(kGoldens[0].trace_file), o);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("unknown spec"), std::string::npos) << r.error;
}

TEST_F(ServerLoopback, UnknownOrderIsAStructuredError) {
  SubmitOptions o = base_options(kGoldens[0], "io");
  o.order = "sideways";
  const SubmitResult r = submit_trace(read_file(kGoldens[0].trace_file), o);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("order"), std::string::npos) << r.error;
}

// An unknown ip is the client's mistake, reported like a spec error, not
// an internal one.
TEST_F(ServerLoopback, UnknownIpIsAnAnalysisError) {
  SubmitOptions o = base_options(kGoldens[0], "io");
  o.options.disabled_ips = {"zz"};
  const SubmitResult r = submit_trace(read_file(kGoldens[0].trace_file), o);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.error, "analysis error: disable-ip option names unknown ip 'zz'");
}

// --- hello reach: the server honours every Hello row like analyze -------

/// What `tango analyze` answers for these options: the verdict token, or
/// the message of the error it stops with.
struct Outcome {
  bool error = false;
  std::string text;
};

Outcome analyze_outcome(const est::Spec& spec, const std::string& text,
                        const core::Options& options) {
  try {
    const tr::Trace trace = tr::parse_trace(spec, text);
    return {false, std::string(core::to_string(
                       core::analyze_parallel(spec, trace, options).verdict))};
  } catch (const std::exception& e) {
    return {true, e.what()};
  }
}

TEST_F(ServerLoopback, HelloOptionsMatchAnalyzeOverTheGoldens) {
  const SpecRegistry registry = SpecRegistry::with_builtins();
  for (const Golden& g : kGoldens) {
    const est::Spec& spec = registry.find(g.spec_ref)->spec;
    const std::string text = read_file(g.trace_file);
    core::Options base = core::Options::io();
    base.max_transitions = 200'000;
    std::vector<core::Options> variants(5, base);
    variants[0].disabled_ips = {spec.ips.front().name};
    variants[1].disabled_ips = {"nosuch"};
    variants[2].unobservable_ips = {spec.ips.back().name};
    variants[3].unobservable_ips = {"m"};
    variants[4].initial_state_search = true;
    for (const core::Options& v : variants) {
      // The CLI implies --partial with --unobservable-ip; the client here
      // leaves it unset, so the server must imply it too.
      core::Options expected = v;
      expected.partial = !v.unobservable_ips.empty();
      const Outcome want = analyze_outcome(spec, text, expected);
      for (const char* mode : {"online", "static"}) {
        SubmitOptions o = base_options(g, "io");
        o.mode = mode;
        o.options = v;
        const SubmitResult r = submit_trace(text, o);
        const std::string what = std::string(g.trace_file) + " " + mode +
                                 " " + core::write_options(v, core::kHello);
        if (want.error) {
          EXPECT_FALSE(r.completed) << what;
          EXPECT_NE(r.error.find(want.text), std::string::npos)
              << what << ": " << r.error << " vs " << want.text;
        } else {
          ASSERT_TRUE(r.completed) << what << ": " << r.error;
          EXPECT_EQ(r.final_status, want.text) << what;
        }
      }
    }
  }
}

// 1, 4 and 16 concurrent on-line clients against the suite's 4-worker
// server, each cycling through the goldens in 2-line chunks: every
// session is accepted (none answered `overloaded`) and gets its own
// verdict, equal to analyze's.
TEST_F(ServerLoopback, ConcurrentClientsEachGetTheirVerdict) {
  const SpecRegistry registry = SpecRegistry::with_builtins();
  std::vector<std::string> texts;
  std::vector<std::string> want;
  for (const Golden& g : kGoldens) {
    texts.push_back(read_file(g.trace_file));
    core::Options options = core::Options::io();
    options.max_transitions = 200'000;
    want.push_back(
        analyze_outcome(registry.find(g.spec_ref)->spec, texts.back(), options)
            .text);
  }
  const std::size_t goldens = std::size(kGoldens);
  for (const std::size_t clients : {1, 4, 16}) {
    std::vector<std::vector<SubmitResult>> results(clients);
    std::vector<std::thread> pool;
    for (std::size_t c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        for (std::size_t i = 0; i < goldens; ++i) {
          const std::size_t k = (c + i) % goldens;
          SubmitOptions o = base_options(kGoldens[k], "io");
          o.chunk_size = 2;
          results[c].push_back(submit_trace(texts[k], o));
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (std::size_t c = 0; c < clients; ++c) {
      for (std::size_t i = 0; i < goldens; ++i) {
        const std::size_t k = (c + i) % goldens;
        const SubmitResult& r = results[c][i];
        const std::string what = std::to_string(clients) + " clients, " +
                                 kGoldens[k].trace_file;
        EXPECT_FALSE(r.overloaded) << what;
        ASSERT_TRUE(r.completed) << what << ": " << r.error;
        EXPECT_EQ(r.final_status, want[k]) << what;
      }
    }
  }
}

// --- limits: a client may only tighten the server's ---------------------

TEST(ServerLimits, AClientCannotRaiseTheServersBudgets) {
  struct Case {
    std::uint64_t core::Options::*budget;
    const char* reason;
  };
  for (const Case c : {Case{&core::Options::max_transitions, "transitions"},
                       Case{&core::Options::max_memory, "memory"}}) {
    core::Options defaults;
    defaults.*c.budget = 1;
    PrivateServer server(defaults);
    SubmitOptions o;
    o.port = server.port();
    o.spec = "builtin:abp";
    o.options.*c.budget = 1'000'000'000;
    const SubmitResult r = submit_trace(read_file("abp_valid.tr"), o);
    ASSERT_TRUE(r.completed) << r.error;
    EXPECT_EQ(r.final_status, "inconclusive") << c.reason;
    EXPECT_EQ(r.reason, c.reason);
  }
}

TEST(ServerLimits, AClientCannotRaiseTheServersDepthBound) {
  core::Options defaults;
  defaults.max_depth = 1;
  PrivateServer server(defaults);
  SubmitOptions o;
  o.port = server.port();
  o.spec = "builtin:abp";
  o.mode = "static";
  o.options.max_depth = 1'000'000;
  const SubmitResult r = submit_trace(read_file("abp_valid.tr"), o);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.final_status, "inconclusive");
  EXPECT_EQ(r.reason, "depth");
}

TEST(ServerLimits, AClientCannotRaiseTheServersJobs) {
  const std::string dir = events_dir("jobs_cap");
  PrivateServer server(core::Options{}, dir);  // jobs 1, like `tango serve`
  SubmitOptions o;
  o.port = server.port();
  o.spec = "builtin:abp";
  o.mode = "static";
  o.options.jobs = 4;
  const SubmitResult r = submit_trace(read_file("abp_valid.tr"), o);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.final_status, "valid");
  server.stop();
  const obs::JsonValue header = run_header(dir, r.session_id);
  EXPECT_EQ(header.find("flags")->find("jobs")->integer, 1);
}

// --- raw-socket tests (drive the wire directly) ---------------------------

/// Minimal raw client for the protocol-shape tests the SubmitOptions
/// surface cannot express (held sessions, cancels, torn chunks).
struct RawClient {
  OwnedFd fd;
  FrameDecoder decoder;

  explicit RawClient(std::uint16_t port) {
    std::string err;
    fd = OwnedFd(connect_to("127.0.0.1", port, err));
    EXPECT_TRUE(fd.valid()) << err;
  }
  bool send(const Frame& f) { return send_all(fd.get(), encode_frame(f)); }
  /// Blocks up to ~2s for the next frame; Error frame with `message` set
  /// "connection closed" when the server hung up first.
  Frame read() {
    std::string payload;
    for (int waited = 0; waited < 2'000;) {
      if (decoder.next(payload)) return parse_frame(payload);
      char buf[4096];
      const int n = recv_some(fd.get(), buf, sizeof(buf), 100);
      if (n == kRecvClosed || n == kRecvError) break;
      if (n == kRecvTimeout) waited += 100;
      if (n > 0) decoder.feed(buf, static_cast<std::size_t>(n));
    }
    Frame f;
    f.type = FrameType::Error;
    f.message = "connection closed";
    return f;
  }
};

Frame hello_frame(const char* spec) {
  Frame h;
  h.type = FrameType::Hello;
  h.spec = spec;
  h.options_json = R"({"max_transitions":200000,"order":"io"})";
  return h;
}

TEST_F(ServerLoopback, CancelConcludesInconclusiveShutdown) {
  RawClient c(server_->port());
  ASSERT_TRUE(c.send(hello_frame("builtin:abp")));
  EXPECT_EQ(c.read().type, FrameType::Accepted);

  // Feed a prefix (no in-text eof marker), then cancel mid-analysis.
  std::string text = read_file("abp_valid.tr");
  text = text.substr(0, text.find("eof"));
  Frame chunk;
  chunk.type = FrameType::Chunk;
  chunk.text = text;
  ASSERT_TRUE(c.send(chunk));
  Frame cancel;
  cancel.type = FrameType::Cancel;
  ASSERT_TRUE(c.send(cancel));

  Frame f = c.read();
  while (f.type == FrameType::Verdict && !f.final_verdict) f = c.read();
  ASSERT_EQ(f.type, FrameType::Verdict) << f.message;
  EXPECT_TRUE(f.final_verdict);
  EXPECT_EQ(f.status, "inconclusive");
  EXPECT_EQ(f.reason, "shutdown");
  EXPECT_EQ(c.read().type, FrameType::Stats);
}

TEST_F(ServerLoopback, MidChunkDisconnectTearsDownCleanly) {
  const std::uint64_t before = server_->sessions_completed();
  {
    RawClient c(server_->port());
    ASSERT_TRUE(c.send(hello_frame("builtin:abp")));
    EXPECT_EQ(c.read().type, FrameType::Accepted);
    Frame chunk;
    chunk.type = FrameType::Chunk;
    chunk.text = "in u.send(0)\nout n.dt(0,";  // torn mid-event
    ASSERT_TRUE(c.send(chunk));
  }  // ~RawClient closes the socket mid-session

  // The worker must notice the dead peer, conclude and move on; a healthy
  // session afterwards proves the pool survived.
  for (int i = 0; i < 50 && server_->sessions_completed() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(server_->sessions_completed(), before);
  const SubmitResult r = submit_trace(read_file("abp_valid.tr"),
                                      base_options(kGoldens[0], "io"));
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.final_status, "valid");
}

TEST_F(ServerLoopback, GarbageBytesGetAStructuredErrorFrame) {
  RawClient c(server_->port());
  ASSERT_TRUE(send_all(c.fd.get(), std::string("\x00\x00\x00\x04junk", 8)));
  const Frame f = c.read();
  EXPECT_EQ(f.type, FrameType::Error);
  EXPECT_NE(f.message.find("frame"), std::string::npos) << f.message;
}

TEST_F(ServerLoopback, NonHelloFirstFrameIsRejected) {
  RawClient c(server_->port());
  Frame eof;
  eof.type = FrameType::Eof;
  ASSERT_TRUE(c.send(eof));
  const Frame f = c.read();
  EXPECT_EQ(f.type, FrameType::Error);
  EXPECT_NE(f.message.find("hello"), std::string::npos) << f.message;
}

// --- dedicated-server tests (need their own pool shape or session ids) ----

TEST(ServerBackpressure, QueueFullAnswersOverloaded) {
  auto registry =
      std::make_shared<const SpecRegistry>(SpecRegistry::with_builtins());
  ServerConfig config;
  config.workers = 1;
  config.queue_max = 1;
  Server server(std::move(registry), config);
  server.start();

  // Occupy the only worker, then the only queue slot, with held sessions.
  RawClient busy(server.port());
  ASSERT_TRUE(busy.send(hello_frame("builtin:abp")));
  EXPECT_EQ(busy.read().type, FrameType::Accepted);  // a worker claimed it
  RawClient queued(server.port());
  ASSERT_TRUE(queued.send(hello_frame("builtin:abp")));
  for (int i = 0; i < 500 && server.queue_depth() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.queue_depth(), 1u);

  SubmitOptions o;
  o.port = server.port();
  o.spec = "builtin:abp";
  const SubmitResult r = submit_trace("eof\n", o);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.overloaded) << r.error;
  EXPECT_NE(r.error.find("queue full"), std::string::npos) << r.error;
  EXPECT_EQ(server.sessions_rejected(), 1u);

  server.shutdown();
}

// After its verdict a session waits (up to 2 s) for the client to close
// first; a draining server must not wait on a client that never does.
TEST(ServerDrain, ShutdownDoesNotWaitOnAClientThatStaysOpen) {
  auto registry =
      std::make_shared<const SpecRegistry>(SpecRegistry::with_builtins());
  ServerConfig config;
  config.workers = 1;
  Server server(std::move(registry), config);
  server.start();

  RawClient c(server.port());
  ASSERT_TRUE(c.send(hello_frame("builtin:abp")));
  EXPECT_EQ(c.read().type, FrameType::Accepted);
  Frame chunk;
  chunk.type = FrameType::Chunk;
  chunk.text = read_file("abp_valid.tr");  // ends with an in-band eof
  ASSERT_TRUE(c.send(chunk));
  Frame f = c.read();
  while (f.type == FrameType::Verdict && !f.final_verdict) f = c.read();
  ASSERT_EQ(f.type, FrameType::Verdict) << f.message;
  EXPECT_EQ(f.status, "valid");
  EXPECT_EQ(c.read().type, FrameType::Stats);

  // `c` stays open: the session is now lingering for the client's close.
  const auto start = std::chrono::steady_clock::now();
  server.shutdown();
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(took.count(), 1'000) << "shutdown waited on an open client";
  EXPECT_EQ(server.sessions_completed(), 1u);
}

TEST(ServerShutdown, DrainConcludesInFlightSessionsWithShutdown) {
  auto registry =
      std::make_shared<const SpecRegistry>(SpecRegistry::with_builtins());
  Server server(std::move(registry), ServerConfig{});
  server.start();

  RawClient c(server.port());
  ASSERT_TRUE(c.send(hello_frame("builtin:abp")));
  EXPECT_EQ(c.read().type, FrameType::Accepted);
  // No eof: the session idles on the socket until the drain flips.
  std::thread closer([&server] { server.shutdown(); });

  Frame f = c.read();
  while (f.type == FrameType::Verdict && !f.final_verdict) f = c.read();
  ASSERT_EQ(f.type, FrameType::Verdict) << f.message;
  EXPECT_EQ(f.status, "inconclusive");
  EXPECT_EQ(f.reason, "shutdown");
  c.fd.reset();  // let the worker's linger see the close and join fast
  closer.join();
}

TEST(ServerFaultInjection, ScopedDeadlineFaultConcludesOneSession) {
  if (!core::kFaultInjectionAvailable) {
    GTEST_SKIP() << "fault injection is compiled out in NDEBUG builds";
  }
  core::FaultInjector::instance().configure("deadline@session:1");

  auto registry =
      std::make_shared<const SpecRegistry>(SpecRegistry::with_builtins());
  Server server(std::move(registry), ServerConfig{});
  server.start();

  SubmitOptions o;
  o.port = server.port();
  o.spec = "builtin:abp";
  // Arms the governor; the fault forces expiry.
  o.options.deadline_ms = 600'000;
  const std::string text = read_file("abp_valid.tr");

  // Session 1 hits the injected deadline; session 2 (same options, out of
  // scope) completes normally — the blast radius is exactly one session.
  const SubmitResult faulted = submit_trace(text, o);
  ASSERT_TRUE(faulted.completed) << faulted.error;
  EXPECT_EQ(faulted.session_id, 1u);
  EXPECT_EQ(faulted.final_status, "inconclusive");
  EXPECT_EQ(faulted.reason, "deadline");

  const SubmitResult healthy = submit_trace(text, o);
  ASSERT_TRUE(healthy.completed) << healthy.error;
  EXPECT_EQ(healthy.session_id, 2u);
  EXPECT_EQ(healthy.final_status, "valid");

  core::FaultInjector::instance().reset();
  server.shutdown();
}

}  // namespace
}  // namespace tango::srv
