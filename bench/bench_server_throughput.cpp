// Analysis-server throughput (docs/SERVER.md §deployment): an in-process
// `serve` pool on a loopback ephemeral port, hammered by 1 / 4 / 16
// concurrent submit clients cycling through the golden traces. Reports
// sessions/sec and per-session latency quantiles (connect -> final
// verdict) per concurrency level; every session's verdict is checked
// against the golden's expected value, so the numbers measure *correct*
// sessions only.
//
// Results go to stdout as a table and to BENCH_server.json (or the path
// in argv[1]) for EXPERIMENTS.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Golden {
  const char* trace_file;
  const char* spec_ref;
  const char* expected;
  std::string text;
};

std::vector<Golden> load_goldens() {
  std::vector<Golden> goldens = {
      {"abp_valid.tr", "builtin:abp", "valid", ""},
      {"abp_invalid.tr", "builtin:abp", "invalid", ""},
      {"ack_paper.tr", "builtin:ack", "valid", ""},
      {"inres_valid.tr", "builtin:inres", "valid", ""},
      {"tp0_valid.tr", "builtin:tp0", "valid", ""},
  };
  for (Golden& g : goldens) {
    std::ifstream file(std::string(TANGO_TRACES_DIR) + "/" + g.trace_file);
    if (!file.good()) {
      std::fprintf(stderr, "cannot open %s\n", g.trace_file);
      std::exit(1);
    }
    std::stringstream text;
    text << file.rdbuf();
    g.text = text.str();
  }
  return goldens;
}

struct LevelResult {
  int clients = 0;
  std::size_t sessions = 0;
  std::size_t failures = 0;
  double wall_seconds = 0.0;
  double sessions_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

double quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * (sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

LevelResult run_level(tango::srv::Server& server,
                      const std::vector<Golden>& goldens, int clients,
                      std::size_t sessions_per_client) {
  std::mutex mu;
  std::vector<double> latencies_ms;
  std::size_t failures = 0;

  const auto start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int t = 0; t < clients; ++t) {
    pool.emplace_back([&, t] {
      std::vector<double> local;
      std::size_t local_failures = 0;
      for (std::size_t i = 0; i < sessions_per_client; ++i) {
        const Golden& g =
            goldens[(static_cast<std::size_t>(t) + i) % goldens.size()];
        tango::srv::SubmitOptions o;
        o.port = server.port();
        o.spec = g.spec_ref;
        o.options.max_transitions = 200'000;
        const auto t0 = Clock::now();
        const tango::srv::SubmitResult r = tango::srv::submit_trace(g.text, o);
        const auto t1 = Clock::now();
        if (!r.completed || r.final_status != g.expected) {
          ++local_failures;
          continue;
        }
        local.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      const std::lock_guard<std::mutex> lock(mu);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
      failures += local_failures;
    });
  }
  for (std::thread& th : pool) th.join();
  const auto end = Clock::now();

  LevelResult r;
  r.clients = clients;
  r.sessions = latencies_ms.size();
  r.failures = failures;
  r.wall_seconds = std::chrono::duration<double>(end - start).count();
  r.sessions_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(r.sessions) / r.wall_seconds
                         : 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  r.p50_ms = quantile(latencies_ms, 0.50);
  r.p95_ms = quantile(latencies_ms, 0.95);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_server.json";
  const std::vector<Golden> goldens = load_goldens();

  auto registry = std::make_shared<const tango::srv::SpecRegistry>(
      tango::srv::SpecRegistry::with_builtins());
  tango::srv::ServerConfig config;
  config.workers = 8;
  config.queue_max = 128;  // measure service time, not rejection rate
  tango::srv::Server server(std::move(registry), config);
  server.start();

  constexpr int kLevels[] = {1, 4, 16};
  constexpr std::size_t kSessionsPerLevel = 160;

  std::vector<LevelResult> results;
  std::printf("%8s %10s %12s %10s %10s %10s\n", "clients", "sessions",
              "sessions/s", "p50 ms", "p95 ms", "failures");
  for (const int clients : kLevels) {
    const LevelResult r = run_level(
        server, goldens, clients,
        kSessionsPerLevel / static_cast<std::size_t>(clients));
    std::printf("%8d %10zu %12.1f %10.3f %10.3f %10zu\n", r.clients,
                r.sessions, r.sessions_per_sec, r.p50_ms, r.p95_ms,
                r.failures);
    results.push_back(r);
  }
  server.shutdown();

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"server_throughput\",\n  \"workers\": "
       << config.workers << ",\n  \"levels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    json << "    {\"clients\": " << r.clients
         << ", \"sessions\": " << r.sessions
         << ", \"failures\": " << r.failures << ", \"wall_seconds\": "
         << r.wall_seconds << ", \"sessions_per_sec\": " << r.sessions_per_sec
         << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", json_path);

  std::size_t total_failures = 0;
  for (const LevelResult& r : results) total_failures += r.failures;
  return total_failures == 0 ? 0 : 1;
}
