#include "core/stats.hpp"

#include <sys/resource.h>

#include <ctime>

#include <algorithm>

namespace tango::core {

Stats& Stats::operator+=(const Stats& other) {
  transitions_executed += other.transitions_executed;
  generates += other.generates;
  restores += other.restores;
  saves += other.saves;
  pruned_by_hash += other.pruned_by_hash;
  evictions += other.evictions;
  tasks_published += other.tasks_published;
  tasks_stolen += other.tasks_stolen;
  fanout_sum += other.fanout_sum;
  fanout_samples += other.fanout_samples;
  static_skips += other.static_skips;
  trail_entries += other.trail_entries;
  checkpoint_bytes += other.checkpoint_bytes;
  max_depth = std::max(max_depth, other.max_depth);
  if (reason == InconclusiveReason::None) reason = other.reason;
  cpu_seconds += other.cpu_seconds;
  phase_parse += other.phase_parse;
  phase_static += other.phase_static;
  phase_search += other.phase_search;
  return *this;
}

std::string Stats::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "TE=%llu GE=%llu RE=%llu SA=%llu depth=%d cpu=%.3fs",
                static_cast<unsigned long long>(transitions_executed),
                static_cast<unsigned long long>(generates),
                static_cast<unsigned long long>(restores),
                static_cast<unsigned long long>(saves), max_depth,
                cpu_seconds);
  return buf;
}

std::string Stats::to_json_counters() const {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"te\":%llu,\"ge\":%llu,\"re\":%llu,\"sa\":%llu,"
      "\"pruned_by_hash\":%llu,\"evictions\":%llu,"
      "\"tasks_published\":%llu,\"tasks_stolen\":%llu,"
      "\"fanout_sum\":%llu,\"fanout_samples\":%llu,"
      "\"static_skips\":%llu,"
      "\"trail_entries\":%llu,\"checkpoint_bytes\":%llu,"
      "\"max_depth\":%d}",
      static_cast<unsigned long long>(transitions_executed),
      static_cast<unsigned long long>(generates),
      static_cast<unsigned long long>(restores),
      static_cast<unsigned long long>(saves),
      static_cast<unsigned long long>(pruned_by_hash),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(tasks_published),
      static_cast<unsigned long long>(tasks_stolen),
      static_cast<unsigned long long>(fanout_sum),
      static_cast<unsigned long long>(fanout_samples),
      static_cast<unsigned long long>(static_skips),
      static_cast<unsigned long long>(trail_entries),
      static_cast<unsigned long long>(checkpoint_bytes), max_depth);
  return buf;
}

std::string Stats::to_json() const {
  std::string out = to_json_counters();
  // The reason lives in the full JSON only: to_json_counters() feeds
  // byte-stable verdict events, and a deadline trip point never is.
  if (reason != InconclusiveReason::None) {
    out.pop_back();
    out += ",\"reason\":\"";
    out += to_string(reason);
    out += "\"}";
  }
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      ",\"cpu_seconds\":%.6f,\"phases\":{"
      "\"parse\":{\"wall_seconds\":%.6f,\"rss_delta_kb\":%lld},"
      "\"static\":{\"wall_seconds\":%.6f,\"rss_delta_kb\":%lld},"
      "\"search\":{\"wall_seconds\":%.6f,\"rss_delta_kb\":%lld}}}",
      cpu_seconds, phase_parse.wall_seconds,
      static_cast<long long>(phase_parse.rss_delta_kb),
      phase_static.wall_seconds,
      static_cast<long long>(phase_static.rss_delta_kb),
      phase_search.wall_seconds,
      static_cast<long long>(phase_search.rss_delta_kb));
  out.pop_back();  // drop the counters' closing '}'; the tail re-closes it
  out += buf;
  return out;
}

std::vector<std::string> Stats::invariant_violations(bool strict) const {
  std::vector<std::string> out;
  if (fanout_samples != generates) {
    out.push_back("fanout_samples (" + std::to_string(fanout_samples) +
                  ") != generates (" + std::to_string(generates) + ")");
  }
  if (pruned_by_hash > transitions_executed) {
    out.push_back("pruned_by_hash (" + std::to_string(pruned_by_hash) +
                  ") > transitions_executed (" +
                  std::to_string(transitions_executed) + ")");
  }
  if (strict) {
    if (transitions_executed < generates) {
      out.push_back("strict: transitions_executed (" +
                    std::to_string(transitions_executed) + ") < generates (" +
                    std::to_string(generates) + ")");
    }
    if (evictions > transitions_executed) {
      out.push_back("strict: evictions (" + std::to_string(evictions) +
                    ") > transitions_executed (" +
                    std::to_string(transitions_executed) + ")");
    }
  }
  return out;
}

namespace {
std::int64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

CpuTimer::CpuTimer() : start_ns_(cpu_now_ns()) {}

double CpuTimer::elapsed() const {
  return static_cast<double>(cpu_now_ns() - start_ns_) / 1e9;
}

namespace {
std::int64_t wall_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss);  // KiB on Linux
}
}  // namespace

PhaseTimer::PhaseTimer(PhaseMetrics& target)
    : target_(target), start_ns_(wall_now_ns()), start_rss_kb_(max_rss_kb()) {}

PhaseTimer::~PhaseTimer() {
  target_.wall_seconds +=
      static_cast<double>(wall_now_ns() - start_ns_) / 1e9;
  const std::int64_t delta = max_rss_kb() - start_rss_kb_;
  if (delta > 0) target_.rss_delta_kb += delta;
}

}  // namespace tango::core
