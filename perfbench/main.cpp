// The repository's benchmark: one binary, four workloads, each run through
// the entry points users hit (core::analyze, core::analyze_parallel, and
// srv::Server driven by srv::submit_trace). Inputs come from --seed; every
// verdict is checked against an answer fixed by how the input was made.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--traces-dir traces] [--out-dir .bench_out]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: spans around the calls into each layer, the
// benchmark's own walk of the search (walk.hpp) checked against the engine,
// and the per-layer metrics. The last stdout line is one JSON object with
// the result; perfbench/run.py builds this binary and wraps that line.
// --smoke shrinks every input so a whole pass takes seconds.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/guard_solver.hpp"
#include "analysis/invariants.hpp"
#include "core/dfs.hpp"
#include "core/parallel_dfs.hpp"
#include "walk.hpp"
#include "estelle/spec.hpp"
#include "server/client.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"
#include "sim/mutate.hpp"
#include "sim/workloads.hpp"
#include "spans.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace tango;
using perfbench::Span;
using perfbench::SpanTotals;
using perfbench::Tracer;

// ---------------------------------------------------------------- basics

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string traces_dir = "traces";
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--traces-dir d] "
               "[--out-dir d]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--traces-dir") {
      a.traces_dir = value();
    } else if (k == "--out-dir") {
      a.out_dir = value();
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double seconds_since(std::int64_t t0_ns) {
  return (perfbench::now_ns() - t0_ns) / 1e9;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Metrics in insertion order, printed as {"name":{"value":v,"unit":u}}.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + num +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }
  /// Per-name median across several Metrics with the same names.
  static Metrics median_of(const std::vector<Metrics>& runs) {
    Metrics out;
    for (std::size_t i = 0; i < runs.front().items_.size(); ++i) {
      std::vector<double> values;
      for (const Metrics& m : runs) values.push_back(m.items_[i].value);
      out.add(runs.front().items_[i].name, median(values),
              runs.front().items_[i].unit);
    }
    return out;
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// The exact search counters the benchmark gates on.
struct Counters {
  std::uint64_t te = 0, ge = 0, re = 0, sa = 0, pruned = 0, skips = 0;

  static Counters of(const core::Stats& s) {
    return {s.transitions_executed, s.generates, s.restores,
            s.saves,                s.pruned_by_hash, s.static_skips};
  }
  /// RE is schedule-dependent in the relaxed parallel engine.
  [[nodiscard]] bool same(const Counters& o, bool with_re) const {
    return te == o.te && ge == o.ge && sa == o.sa && pruned == o.pruned &&
           skips == o.skips && (!with_re || re == o.re);
  }
  /// The exact counters only: `with_re` false drops RE (relaxed parallel
  /// engine); `mdfs` keeps TE and SA (on-line sessions; see
  /// check_sessions).
  [[nodiscard]] std::string json(bool with_re = true, bool mdfs = false) const {
    std::ostringstream os;
    os << "{\"te\": " << te << ", \"sa\": " << sa;
    if (!mdfs) {
      os << ", \"ge\": " << ge << ", \"pruned_by_hash\": " << pruned
         << ", \"static_skips\": " << skips;
      if (with_re) os << ", \"re\": " << re;
    }
    os << "}";
    return os.str();
  }
};

/// Collects the run's correctness verdict; every failed check is printed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int broken = 0;  // failed consistency checks: walk == engine, stable counters

  void expect(bool ok, const std::string& what) {
    if (ok) return;
    if (++broken <= 10) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

est::Spec compile_builtin(const std::string& name, Tracer& tracer) {
  Span s(tracer, "estelle.compile_spec");
  return est::compile_spec(specs::builtin_spec(name));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Times the static-analysis layer's public calls on `spec` (the work
/// ResolvedOptions and SpecRegistry::preload do internally).
void time_static_layer(const est::Spec& spec, Tracer& tracer) {
  {
    Span s(tracer, "static.analyze_guards");
    (void)analysis::analyze_guards(spec);
  }
  Span s(tracer, "static.compute_state_invariants");
  const auto effects = analysis::compute_routine_effects(spec);
  (void)analysis::compute_state_invariants(spec, effects);
}

// -------------------------------------------------------- static workloads

struct Sizes {
  int lapd_rounds;      // lapd_valid_long
  int tp0_long_n;       // tp0_refute_hashed
  int tp0_short_n;      // tp0_refute_parallel
  int serve_lapd_rounds;
  int serve_tp0_n;
};

Sizes sizes_for(bool smoke) {
  if (smoke) return {200, 50, 3, 4, 2};
  return {10000, 5000, 7, 300, 3};
}

/// A fixed jobs count, at most the CPUs this process may run on (nproc).
int parallel_jobs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(nproc, 1, 4);
}

/// Which late output of a TP0 paper trace gets its parameter edited, as a
/// position from the end. The refutation tree depends on the position;
/// outputs 2 and 3 from the end give identical trees and counters, so the
/// seed changes the input but not the amount of work.
int tp0_edit_from_last(std::uint64_t seed) {
  return 2 + static_cast<int>(seed % 2);
}

struct StaticWorkload {
  std::string spec_name;
  est::Spec spec;
  std::string text;  // the trace as the user hands it over
  core::Options options;
  bool parallel = false;
  core::Verdict expected = core::Verdict::Valid;
};

std::unique_ptr<StaticWorkload> make_static(const std::string& name,
                                            std::uint64_t seed, bool smoke,
                                            Tracer& tracer) {
  const Sizes z = sizes_for(smoke);
  auto w = std::make_unique<StaticWorkload>();
  if (name == "lapd_valid_long") {
    w->spec_name = "lapd";
    w->spec = compile_builtin("lapd", tracer);
    w->text = tr::to_text(
        w->spec, sim::lapd_trace(w->spec, z.lapd_rounds,
                                 static_cast<std::uint32_t>(seed)));
    w->options = core::Options::full();
    w->expected = core::Verdict::Valid;
  } else if (name == "tp0_refute_hashed" || name == "tp0_refute_parallel") {
    const bool par = name == "tp0_refute_parallel";
    w->spec_name = "tp0";
    w->spec = compile_builtin("tp0", tracer);
    w->text = tr::to_text(
        w->spec,
        sim::mutate_output_param_from_last(
            sim::tp0_paper_trace(w->spec, par ? z.tp0_short_n : z.tp0_long_n),
            tp0_edit_from_last(seed)));
    w->options = core::Options::io();
    w->options.hash_states = !par;
    w->options.jobs = parallel_jobs();
    w->parallel = par;
    w->expected = core::Verdict::Invalid;
  } else {
    throw std::invalid_argument("no static workload named " + name);
  }
  return w;
}

struct Analysis {
  core::DfsResult result;
  double parse_s = 0.0;
  double wall_s = 0.0;  // parse + engine
  double cpu_s = 0.0;
};

/// One analysis as a user pays for it: trace text in memory to verdict.
Analysis analyze_once(const StaticWorkload& w, bool parallel) {
  Analysis a;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = perfbench::now_ns();
  const tr::Trace trace = tr::parse_trace(w.spec, w.text);
  a.parse_s = seconds_since(t0);
  a.result = parallel ? core::analyze_parallel(w.spec, trace, w.options)
                      : core::analyze(w.spec, trace, w.options);
  a.wall_s = seconds_since(t0);
  a.cpu_s = cpu_seconds() - cpu0;
  return a;
}

struct RunOutput {
  Metrics metrics;
  Checks checks;
  std::string counters = "{}";
  std::string info = "{}";
};

// Contention from other tenants of a shared host comes in phases of
// seconds to minutes that slow memory-heavy analyses by up to half. A
// run's median, mean or lower decile then depends on which phases it
// caught, while the fastest of many repetitions tracks the uncontended
// cost. In ten 20-second runs on a 4-vCPU shared VM, the spread
// (interquartile range over median) of the fastest analysis was 0.05 and
// 0.09 on the two sequential static workloads, against 0.26 and 0.48 for
// the median analysis. Set-up and verdict times are therefore gated on
// the fastest repetition, and set-up repetitions are spread over the run
// in kSegments + 1 batches so that they meet the same phases as the
// verdicts; set-ups all done before the loop read up to 50% apart
// between two sets of ten runs. The per-verdict median and tail are
// reported beside them.
constexpr int kSegments = 10;
constexpr double kSetupBatchSeconds = 0.1;
constexpr int kSetupMaxRepeats = 100;  // per batch

/// Times repetitions of a workload's set-up and keeps the fastest.
template <typename T>
class SetupTimer {
 public:
  explicit SetupTimer(std::function<T()> setup) : setup_(std::move(setup)) {}

  /// At least one set-up, then more until kSetupBatchSeconds have been
  /// spent; returns the last result. Tearing a result down (a server's
  /// drain) happens outside the clock.
  T batch() {
    T last;
    double spent = 0.0;
    for (int i = 0; i == 0 || (spent < kSetupBatchSeconds &&
                               i < kSetupMaxRepeats);
         ++i) {
      last = T();
      const std::int64_t t0 = perfbench::now_ns();
      last = setup_();
      const double took = seconds_since(t0);
      fastest_ = repeats_++ == 0 ? took : std::min(fastest_, took);
      spent += took;
    }
    return last;
  }

  [[nodiscard]] double fastest() const { return fastest_; }

 private:
  std::function<T()> setup_;
  double fastest_ = 0.0;
  int repeats_ = 0;
};

/// One correct verdict of a timed loop: which distinct input it was for,
/// when it completed (from the start of the loop) and how long it took.
struct Sample {
  std::size_t input = 0;
  double done_s = 0.0;
  double latency_s = 0.0;
};

/// verdict_min_s: for each distinct input the fastest verdict of the run,
/// averaged over the inputs in proportion to how often each ran. On a
/// static workload (one input) that is the fastest analysis; on the
/// server mix every kind of session counts by its share.
double uncontended_latency(const std::vector<Sample>& samples) {
  std::map<std::size_t, std::pair<double, std::size_t>> per_input;
  for (const Sample& s : samples) {
    const auto it = per_input.try_emplace(s.input, s.latency_s, 0).first;
    it->second.first = std::min(it->second.first, s.latency_s);
    ++it->second.second;
  }
  double weighted = 0.0;
  for (const auto& [input, fastest_and_count] : per_input) {
    weighted += fastest_and_count.first * fastest_and_count.second;
  }
  return samples.empty() ? 0.0 : weighted / samples.size();
}

/// The end-to-end metrics shared by every workload. The per-verdict
/// median, the tail and the throughput go into `info` with the sample
/// count, and every sample into `samples_path`.
void add_end_to_end(Metrics& m, std::string& info,
                    const std::vector<Sample>& samples, double wall,
                    double setup_s, const std::string& samples_path) {
  m.add("verdict_min_s", uncontended_latency(samples), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("setup_s", setup_s, "s");
  std::vector<double> latencies;
  for (const Sample& s : samples) latencies.push_back(s.latency_s);
  // The highest percentile with at least ten samples beyond it.
  const double n = static_cast<double>(latencies.size());
  const double tail_q = n >= 20 ? std::min(0.999, 1.0 - 10.0 / n) : 0.5;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"samples\": %zu, \"p50_s\": %.9g, \"tail_q\": %.4g, "
                "\"tail_s\": %.9g, \"verdicts_per_s\": %.9g",
                latencies.size(), median(latencies), tail_q,
                percentile(latencies, tail_q), n / wall);
  info.pop_back();  // re-open the object
  info += (info.size() > 1 ? ", " : "") + std::string(buf) + "}";
  if (std::FILE* f = std::fopen(samples_path.c_str(), "w")) {
    std::fprintf(f, "input\tdone_s\tlatency_s\n");
    for (const Sample& s : samples) {
      std::fprintf(f, "%zu\t%.9f\t%.9f\n", s.input, s.done_s, s.latency_s);
    }
    std::fclose(f);
  }
}

std::string samples_path(const Args& args) {
  return args.out_dir + "/samples-" + args.workload + "-seed" +
         std::to_string(args.seed) + ".tsv";
}

RunOutput run_static_timed(const Args& args) {
  RunOutput out;
  Tracer off(false);
  SetupTimer<std::unique_ptr<StaticWorkload>> setup(
      [&] { return make_static(args.workload, args.seed, args.smoke, off); });
  const std::unique_ptr<StaticWorkload> w = setup.batch();

  // Warm-up and reference: lazy set-up finishes before timing starts.
  const Analysis ref = analyze_once(*w, w->parallel);
  const Counters want = Counters::of(ref.result.stats);
  out.checks.expect(ref.result.verdict == w->expected,
                    "warm-up verdict differs from the known answer");

  std::vector<Sample> samples;
  double wall = 0.0;  // the loop's, set-up batches excluded
  for (int seg = 0; seg < kSegments; ++seg) {
    const std::int64_t start = perfbench::now_ns();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(args.seconds / kSegments * 1e9);
    do {
      const Analysis a = analyze_once(*w, w->parallel);
      ++out.checks.attempted;
      if (a.result.verdict != w->expected) {
        ++out.checks.failed;
        continue;
      }
      out.checks.expect(
          Counters::of(a.result.stats).same(want, !w->parallel),
          "counters differ between analyses of the same input");
      samples.push_back({0, wall + seconds_since(start), a.wall_s});
    } while (perfbench::now_ns() < deadline);
    wall += seconds_since(start);
    (void)setup.batch();
  }

  out.counters = want.json(!w->parallel);
  std::ostringstream info;
  info << "{\"spec\": \"" << w->spec_name << "\", \"order\": \""
       << w->options.order_mode_name() << "\", \"hash_states\": "
       << (w->options.hash_states ? "true" : "false")
       << ", \"engine\": \"" << (w->parallel ? "analyze_parallel" : "analyze")
       << "\", \"jobs\": " << (w->parallel ? w->options.jobs : 1)
       << ", \"trace_bytes\": " << w->text.size() << "}";
  out.info = info.str();
  add_end_to_end(out.metrics, out.info, samples, wall, setup.fastest(),
                 samples_path(args));
  return out;
}

/// Per-layer inputs that are not span totals.
struct LayerFacts {
  core::Stats walk;                 // the walk's counters
  std::uint64_t fires_ok = 0;
  std::uint64_t hash_calls = 0;
  std::uint64_t visited_inserts = 0;
  std::size_t events = 0;
  std::size_t text_bytes = 0;
  double walk_wall_s = 0.0;         // traced walk
  double engine_wall_s = 0.0;       // untraced analysis of the same input
  double rss_delta_mb = 0.0;
  double session_parse_ms = 0.0;
  double session_search_ms = 0.0;
  double server_overhead_ms = 0.0;
  double mdfs_te = 0.0;
  double mdfs_snapshots = 0.0;
  std::uint64_t accepted = 0, completed = 0, rejected = 0;
  std::uint64_t published = 0, stolen = 0;
  double busy_share = 0.0;
  double speedup = 0.0;
};

/// Every per-layer metric, from span totals plus `f`. A layer the
/// workload never calls reports zero calls; its per-call cost then comes
/// from the probe.* spans (walk.hpp) so that it is still a measurement.
Metrics layer_metrics(const std::map<std::string, SpanTotals>& spans,
                      const LayerFacts& f) {
  auto get = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  auto per_call_ns = [&](const char* name, const char* probe) {
    const SpanTotals t = get(name);
    return t.calls > 0 ? t.ns_per_call() : get(probe).ns_per_call();
  };
  const core::Stats& s = f.walk;
  const SpanTotals gen = get("core.generate");
  const SpanTotals fire = get("core.apply_firing");
  const SpanTotals init = get("core.apply_initializer");
  const SpanTotals parse = get("trace.parse_trace");
  const SpanTotals search = get("core.search");
  const std::uint64_t fire_calls = fire.calls + init.calls;

  Metrics m;
  m.add("estelle.compile_s", get("estelle.compile_spec").total_s(), "s");
  m.add("static.guard_solver_s", get("static.analyze_guards").total_s(), "s");
  m.add("static.invariants_s",
        get("static.compute_state_invariants").total_s(), "s");
  m.add("static.resolve_s", get("static.resolve_options").total_s(), "s");
  m.add("static.skips_per_generate",
        ratio(static_cast<double>(s.static_skips), s.generates), "ratio");
  m.add("trace.parse_s", parse.total_s(), "s");
  m.add("trace.events", static_cast<double>(f.events), "count");
  m.add("trace.parse_mb_per_s", ratio(f.text_bytes / 1e6, parse.total_s()),
        "MB/s");
  m.add("generate.calls", static_cast<double>(gen.calls), "count");
  m.add("generate.self_s", gen.self_s(), "s");
  m.add("generate.ns_per_call", gen.ns_per_call(), "ns");
  m.add("generate.fanout_mean", s.average_fanout(), "ratio");
  m.add("fire.calls", static_cast<double>(fire_calls), "count");
  m.add("fire.self_s", fire.self_s() + init.self_s(), "s");
  m.add("fire.ns_per_call",
        ratio(static_cast<double>(fire.total_ns + init.total_ns), fire_calls),
        "ns");
  m.add("fire.ok_ratio", ratio(static_cast<double>(f.fires_ok), fire_calls),
        "ratio");
  m.add("checkpoint.saves", static_cast<double>(s.saves), "count");
  m.add("checkpoint.restores", static_cast<double>(s.restores), "count");
  m.add("checkpoint.save_ns",
        per_call_ns("checkpoint.save", "probe.checkpoint.save"), "ns");
  m.add("checkpoint.restore_ns",
        per_call_ns("checkpoint.restore", "probe.checkpoint.restore"), "ns");
  m.add("checkpoint.trail_entries", static_cast<double>(s.trail_entries),
        "count");
  m.add("checkpoint.bytes", static_cast<double>(s.checkpoint_bytes), "B");
  m.add("hash.calls", static_cast<double>(f.hash_calls), "count");
  m.add("hash.ns_per_call",
        per_call_ns("hash.state_hash", "probe.hash.state_hash"), "ns");
  m.add("visited.inserts", static_cast<double>(f.visited_inserts), "count");
  m.add("visited.pruned", static_cast<double>(s.pruned_by_hash), "count");
  m.add("search.self_s", search.self_s(), "s");
  m.add("search.te", static_cast<double>(s.transitions_executed), "count");
  m.add("search.depth_max", s.max_depth, "count");
  m.add("search.te_per_s",
        ratio(static_cast<double>(s.transitions_executed), search.total_s()),
        "1/s");
  m.add("search.rss_delta_mb", f.rss_delta_mb, "MB");
  m.add("parallel.tasks_published", static_cast<double>(f.published),
        "count");
  m.add("parallel.tasks_stolen", static_cast<double>(f.stolen), "count");
  m.add("parallel.steal_ratio",
        ratio(static_cast<double>(f.stolen), f.published), "ratio");
  m.add("parallel.busy_share", f.busy_share, "ratio");
  m.add("parallel.speedup", f.speedup, "ratio");
  m.add("mdfs.te", f.mdfs_te, "count");
  m.add("mdfs.snapshots", f.mdfs_snapshots, "count");
  m.add("session.search_ms", f.session_search_ms, "ms");
  m.add("session.parse_ms", f.session_parse_ms, "ms");
  m.add("server.preload_s", get("srv.preload").total_s(), "s");
  m.add("server.overhead_ms", f.server_overhead_ms, "ms");
  m.add("server.accepted", static_cast<double>(f.accepted), "count");
  m.add("server.completed", static_cast<double>(f.completed), "count");
  m.add("server.rejected", static_cast<double>(f.rejected), "count");
  m.add("bench.trace_overhead", ratio(f.walk_wall_s, f.engine_wall_s),
        "ratio");
  return m;
}

/// Walks one input and checks it against `engine`.
perfbench::WalkResult checked_walk(const est::Spec& spec,
                                   const std::string& text,
                                   const core::Options& options,
                                   const core::DfsResult& engine,
                                   Tracer& tracer, Checks& checks,
                                   const std::string& label) {
  perfbench::WalkResult w = perfbench::walk(spec, text, options, tracer);
  checks.expect(w.verdict == engine.verdict,
                label + ": walk verdict differs from the engine's");
  const Counters d = Counters::of(w.stats);
  const Counters e = Counters::of(engine.stats);
  checks.expect(d.same(e, true), label + ": walk counters " + d.json() +
                                     " differ from the engine's " + e.json());
  return w;
}

void add_walk(LayerFacts& f, const perfbench::WalkResult& w) {
  f.walk += w.stats;
  f.fires_ok += w.fires_ok;
  f.hash_calls += w.hash_calls;
  f.visited_inserts += w.visited_inserts;
  f.events += w.events;
  f.walk_wall_s += w.wall_s;
}

constexpr int kProbeCalls = 2000;

RunOutput run_static_traced(const Args& args) {
  RunOutput out;
  Tracer setup(true);
  std::unique_ptr<StaticWorkload> w =
      make_static(args.workload, args.seed, args.smoke, setup);
  time_static_layer(w->spec, setup);
  {
    Span s(setup, "srv.preload");
    srv::SpecRegistry registry;
    registry.preload("builtin:" + w->spec_name,
                     specs::builtin_spec(w->spec_name));
  }

  std::vector<Metrics> per_iteration;
  Tracer iter(true);
  Counters want;
  double rss_delta_mb = 0.0;
  const std::int64_t deadline =
      perfbench::now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::uint32_t i = 0;
       per_iteration.empty() || perfbench::now_ns() < deadline; ++i) {
    iter.clear();
    iter.set_request(i);
    LayerFacts f;
    // Untraced reference on the sequential engine; the walk must match.
    const Analysis seq = analyze_once(*w, false);
    ++out.checks.attempted;
    if (seq.result.verdict != w->expected) ++out.checks.failed;
    if (i == 0) {
      want = Counters::of(seq.result.stats);
      rss_delta_mb = seq.result.stats.phase_search.rss_delta_kb / 1024.0;
    }
    out.checks.expect(Counters::of(seq.result.stats).same(want, true),
                      "engine counters differ between iterations");
    f.engine_wall_s = seq.wall_s;
    f.rss_delta_mb = rss_delta_mb;
    f.session_parse_ms = seq.parse_s * 1e3;
    f.session_search_ms = seq.result.stats.phase_search.wall_seconds * 1e3;
    f.server_overhead_ms =
        (seq.wall_s - seq.parse_s - seq.result.stats.phase_static.wall_seconds -
         seq.result.stats.phase_search.wall_seconds) *
        1e3;
    if (w->parallel) {
      const Analysis par = analyze_once(*w, true);
      ++out.checks.attempted;
      if (par.result.verdict != w->expected) ++out.checks.failed;
      out.checks.expect(Counters::of(par.result.stats).same(want, false),
                        "analyze_parallel TE/GE/SA differ from analyze");
      f.published = par.result.stats.tasks_published;
      f.stolen = par.result.stats.tasks_stolen;
      f.busy_share = ratio(par.cpu_s, par.wall_s * w->options.jobs);
      f.speedup = ratio(seq.wall_s, par.wall_s);
    }
    const perfbench::WalkResult walk = checked_walk(
        w->spec, w->text, w->options, seq.result, iter, out.checks,
        args.workload);
    add_walk(f, walk);
    f.text_bytes = w->text.size();
    if (walk.stats.saves == 0 || walk.hash_calls == 0) {
      perfbench::probe_idle_layers(w->spec, w->text, w->options, kProbeCalls,
                                   iter);
    }
    Tracer all(true);
    all.absorb(setup);
    all.absorb(iter);
    per_iteration.push_back(layer_metrics(all.totals(), f));
  }
  out.metrics = Metrics::median_of(per_iteration);
  out.counters = want.json();
  setup.absorb(iter);
  const std::string path = args.out_dir + "/spans-" + args.workload + ".tsv";
  out.checks.expect(setup.write_tsv(path), "cannot write " + path);
  out.info = "{\"iterations\": " + std::to_string(per_iteration.size()) +
             ", \"spans_file\": \"" + path + "\"}";
  return out;
}

// ------------------------------------------------------- serve_online_mix

constexpr int kClients = 2;        // closed-loop client connections
constexpr int kLapdSessions = 4;   // distinct generated LAPD traces
constexpr int kTp0Sessions = 2;    // distinct invalid TP0 traces
constexpr std::size_t kChunkLines = 16;

struct MixSession {
  std::string kind;  // golden | lapd | tp0
  std::string spec;  // builtin name
  std::string text;
  std::string expected;  // final status the server must send
  std::size_t chunk_lines = 0;
};

struct ServeSetup {
  std::vector<MixSession> sessions;
  std::vector<std::size_t> schedule;  // seeded order of session indexes
  std::shared_ptr<const srv::SpecRegistry> registry;
  std::unique_ptr<srv::Server> server;
};

std::vector<MixSession> make_mix(const Args& args, Tracer& tracer) {
  struct Golden {
    const char* file;
    const char* spec;
    const char* expected;
  };
  // Expected verdicts are part of each golden's name and description.
  const Golden goldens[] = {{"abp_valid.tr", "abp", "valid"},
                            {"abp_invalid.tr", "abp", "invalid"},
                            {"ack_paper.tr", "ack", "valid"},
                            {"inres_valid.tr", "inres", "valid"},
                            {"tp0_valid.tr", "tp0", "valid"}};
  std::vector<MixSession> mix;
  for (const Golden& g : goldens) {
    mix.push_back({"golden", g.spec,
                   read_file(args.traces_dir + "/" + g.file), g.expected, 0});
  }
  const Sizes z = sizes_for(args.smoke);
  const est::Spec lapd = compile_builtin("lapd", tracer);
  for (int i = 0; i < kLapdSessions; ++i) {
    const auto seed = static_cast<std::uint32_t>(args.seed * 16 + i);
    mix.push_back({"lapd", "lapd",
                   tr::to_text(lapd, sim::lapd_trace(lapd, z.serve_lapd_rounds,
                                                     seed)),
                   "valid", kChunkLines});
  }
  const est::Spec tp0 = compile_builtin("tp0", tracer);
  for (int i = 0; i < kTp0Sessions; ++i) {
    mix.push_back(
        {"tp0", "tp0",
         tr::to_text(tp0, sim::mutate_output_param_from_last(
                              sim::tp0_paper_trace(tp0, z.serve_tp0_n),
                              tp0_edit_from_last(args.seed + i))),
         "invalid", 0});
  }
  return mix;
}

/// Blocks of one of each session, each block shuffled by the seed.
std::vector<std::size_t> make_schedule(std::size_t kinds, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order;
  for (int block = 0; block < 512; ++block) {
    std::vector<std::size_t> b(kinds);
    for (std::size_t i = 0; i < kinds; ++i) b[i] = i;
    std::shuffle(b.begin(), b.end(), rng);
    order.insert(order.end(), b.begin(), b.end());
  }
  return order;
}

std::unique_ptr<ServeSetup> make_serve(const Args& args, Tracer& tracer) {
  auto s = std::make_unique<ServeSetup>();
  s->sessions = make_mix(args, tracer);
  s->schedule = make_schedule(s->sessions.size(), args.seed);
  {
    Span sp(tracer, "srv.preload");
    s->registry = std::make_shared<const srv::SpecRegistry>(
        srv::SpecRegistry::with_builtins());
  }
  srv::ServerConfig config;
  config.workers = kClients;
  config.queue_max = 16;
  Span sp(tracer, "srv.start");
  s->server = std::make_unique<srv::Server>(s->registry, config);
  s->server->start();
  return s;
}

/// `"key":<number>` in a stats frame, searched from `from`; NaN if absent.
double json_number(const std::string& js, const std::string& key,
                   std::size_t from = 0) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t p = js.find(pat, from);
  if (p == std::string::npos) return NAN;
  return std::strtod(js.c_str() + p + pat.size(), nullptr);
}

double phase_wall_s(const std::string& js, const std::string& phase) {
  const std::size_t p = js.find("\"" + phase + "\":{");
  return p == std::string::npos ? NAN : json_number(js, "wall_seconds", p);
}

struct SessionOutcome {
  std::size_t session = 0;
  bool ok = false;
  double done_s = 0.0;  // completion, from the start of the loop
  double latency_s = 0.0;
  Counters counters;
  double parse_s = 0.0, static_s = 0.0, search_s = 0.0;
};

/// The closed loop: kClients threads, each sending its next session only
/// after the previous verdict arrived, until `seconds` have passed.
std::vector<SessionOutcome> closed_loop(const ServeSetup& s, double seconds,
                                        std::vector<Tracer>* tracers) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<SessionOutcome>> per_client(kClients);
  const std::int64_t start = perfbench::now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Tracer off(false);
      Tracer& tracer = tracers != nullptr ? (*tracers)[c] : off;
      do {
        const std::size_t n = next.fetch_add(1);
        SessionOutcome o;
        o.session = s.schedule[n % s.schedule.size()];
        const MixSession& m = s.sessions[o.session];
        srv::SubmitOptions opts;
        opts.port = s.server->port();
        opts.spec = "builtin:" + m.spec;
        opts.order = "io";
        opts.mode = "online";
        opts.chunk_size = m.chunk_lines;
        tracer.set_request(static_cast<std::uint32_t>(n));
        const std::int64_t t0 = perfbench::now_ns();
        const srv::SubmitResult r = [&] {
          Span sp(tracer, "srv.submit_trace");
          return srv::submit_trace(m.text, opts);
        }();
        o.latency_s = seconds_since(t0);
        o.done_s = seconds_since(start);
        o.ok = r.completed && !r.overloaded && r.final_status == m.expected;
        const std::string& js = r.stats_json;
        o.counters = {static_cast<std::uint64_t>(json_number(js, "te")),
                      static_cast<std::uint64_t>(json_number(js, "ge")),
                      static_cast<std::uint64_t>(json_number(js, "re")),
                      static_cast<std::uint64_t>(json_number(js, "sa")),
                      static_cast<std::uint64_t>(
                          json_number(js, "pruned_by_hash")),
                      static_cast<std::uint64_t>(
                          json_number(js, "static_skips"))};
        o.parse_s = phase_wall_s(js, "parse");
        o.static_s = phase_wall_s(js, "static");
        o.search_s = phase_wall_s(js, "search");
        per_client[static_cast<std::size_t>(c)].push_back(o);
      } while (perfbench::now_ns() < deadline);
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<SessionOutcome> all;
  for (const auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// Counts failures and checks that each distinct session sent whole reports
/// the same TE and SA every time it runs. GE and RE are not exact on-line:
/// whether the eof frame arrives before MDFS quiesces decides how often it
/// re-generates (§3.1.1). Chunked sessions are exempt altogether, since
/// how much trace has arrived at each quiescence is a matter of timing.
/// Returns the first counters seen per session.
std::vector<Counters> check_sessions(const std::vector<SessionOutcome>& all,
                                     const std::vector<MixSession>& mix,
                                     Checks& checks) {
  std::vector<Counters> first(mix.size());
  std::vector<bool> seen(mix.size(), false);
  for (const SessionOutcome& o : all) {
    ++checks.attempted;
    if (!o.ok) {
      ++checks.failed;
      continue;
    }
    if (mix[o.session].chunk_lines != 0) continue;
    if (!seen[o.session]) {
      seen[o.session] = true;
      first[o.session] = o.counters;
    }
    const Counters& want = first[o.session];
    checks.expect(o.counters.te == want.te && o.counters.sa == want.sa,
                  "session " + std::to_string(o.session) +
                      " counters differ between runs: " +
                      o.counters.json(false, true) + " vs " +
                      want.json(false, true));
  }
  return first;
}

std::string session_counters_json(const std::vector<Counters>& c,
                                  const std::vector<MixSession>& mix) {
  std::string out;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (mix[i].chunk_lines != 0) continue;  // not exact; see check_sessions
    out += (out.empty() ? "{\"" : ", \"") + std::to_string(i) + ":" +
           mix[i].kind + "\": " + c[i].json(false, true);
  }
  return out + "}";
}

RunOutput run_serve_timed(const Args& args) {
  RunOutput out;
  Tracer off(false);
  SetupTimer<std::unique_ptr<ServeSetup>> setup(
      [&] { return make_serve(args, off); });
  const std::unique_ptr<ServeSetup> s = setup.batch();
  // Warm-up: one untimed session per client.
  (void)closed_loop(*s, 0.0, nullptr);
  std::vector<SessionOutcome> all;
  double wall = 0.0;  // the loop's, set-up batches excluded
  for (int seg = 0; seg < kSegments; ++seg) {
    const std::int64_t start = perfbench::now_ns();
    for (SessionOutcome& o :
         closed_loop(*s, args.seconds / kSegments, nullptr)) {
      o.done_s += wall;
      all.push_back(o);
    }
    wall += seconds_since(start);
    (void)setup.batch();
  }
  s->server->shutdown();

  std::vector<Sample> samples;
  for (const SessionOutcome& o : all) {
    if (o.ok) samples.push_back({o.session, o.done_s, o.latency_s});
  }
  const std::vector<Counters> counters =
      check_sessions(all, s->sessions, out.checks);
  out.counters = session_counters_json(counters, s->sessions);
  out.info = "{\"clients\": " + std::to_string(kClients) +
             ", \"distinct_sessions\": " + std::to_string(s->sessions.size()) +
             "}";
  add_end_to_end(out.metrics, out.info, samples, wall, setup.fastest(),
                 samples_path(args));
  return out;
}

RunOutput run_serve_traced(const Args& args) {
  RunOutput out;
  Tracer setup(true);
  std::unique_ptr<ServeSetup> s = make_serve(args, setup);

  // Layers below the server, on the mix's own traces: compile and static
  // analysis of each spec the mix uses, then the walk per trace
  // (DFS with the sessions' IO order) against core::analyze.
  LayerFacts f;
  std::map<std::string, est::Spec> specs_used;
  for (const MixSession& m : s->sessions) {
    if (specs_used.count(m.spec) == 0) {
      specs_used.emplace(m.spec, compile_builtin(m.spec, setup));
      time_static_layer(specs_used.at(m.spec), setup);
    }
  }
  const core::Options options = core::Options::io();
  Tracer walks(true);
  std::vector<double> parse_s(s->sessions.size());
  for (std::size_t i = 0; i < s->sessions.size(); ++i) {
    const MixSession& m = s->sessions[i];
    const est::Spec& spec = specs_used.at(m.spec);
    walks.set_request(static_cast<std::uint32_t>(i));
    const std::int64_t t0 = perfbench::now_ns();
    const tr::Trace trace = tr::parse_trace(spec, m.text);
    parse_s[i] = seconds_since(t0);
    const core::DfsResult engine = core::analyze(spec, trace, options);
    f.engine_wall_s += seconds_since(t0);
    f.rss_delta_mb += engine.stats.phase_search.rss_delta_kb / 1024.0;
    out.checks.expect(core::to_string(engine.verdict) == m.expected,
                      "analyze verdict differs from session " +
                          std::to_string(i) + "'s known answer");
    add_walk(f, checked_walk(spec, m.text, options, engine, walks, out.checks,
                             "session " + std::to_string(i)));
    f.text_bytes += m.text.size();
  }
  perfbench::probe_idle_layers(specs_used.at("tp0"), s->sessions.back().text,
                               options, kProbeCalls, walks);

  std::vector<Tracer> client_tracers(kClients, Tracer(true));
  const std::vector<SessionOutcome> all =
      closed_loop(*s, args.seconds, &client_tracers);
  f.accepted = s->server->sessions_accepted();
  f.completed = s->server->sessions_completed();
  f.rejected = s->server->sessions_rejected();
  s->server->shutdown();
  out.counters = session_counters_json(
      check_sessions(all, s->sessions, out.checks), s->sessions);

  std::vector<double> overhead_ms;
  double te = 0, sa = 0, parse_ms = 0, search_ms = 0;
  std::size_t ok = 0;
  for (const SessionOutcome& o : all) {
    if (!o.ok) continue;
    ++ok;
    te += o.counters.te;
    sa += o.counters.sa;
    // MDFS sessions report no parse phase (their ChunkSource parses as
    // chunks arrive); the session's trace parsed whole stands in for it.
    parse_ms += (o.parse_s > 0 ? o.parse_s : parse_s[o.session]) * 1e3;
    search_ms += o.search_s * 1e3;
    overhead_ms.push_back(
        (o.latency_s - o.parse_s - o.static_s - o.search_s) * 1e3);
  }
  f.mdfs_te = ratio(te, ok);
  f.mdfs_snapshots = ratio(sa, ok);
  f.session_parse_ms = ratio(parse_ms, ok);
  f.session_search_ms = ratio(search_ms, ok);
  f.server_overhead_ms = median(overhead_ms);

  Tracer all_spans(true);
  all_spans.absorb(setup);
  all_spans.absorb(walks);
  for (const Tracer& t : client_tracers) all_spans.absorb(t);
  // The walks ran once over the distinct traces; they are not repeated,
  // so no median is taken here.
  out.metrics = layer_metrics(all_spans.totals(), f);
  const std::string path = args.out_dir + "/spans-" + args.workload + ".tsv";
  out.checks.expect(all_spans.write_tsv(path), "cannot write " + path);
  out.info = "{\"sessions\": " + std::to_string(all.size()) +
             ", \"spans_file\": \"" + path + "\"}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // Debug builds cross-check every incremental hash against the full walk
  // and assert invariants during search: a different program to time.
  std::fprintf(stderr,
               "perfbench: refusing to time a build with assertions on "
               "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const Args args = parse_args(argc, argv);
  static const char* const kWorkloads[] = {
      "lapd_valid_long", "tp0_refute_hashed", "tp0_refute_parallel",
      "serve_online_mix"};
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                args.workload) == std::end(kWorkloads)) {
    usage("unknown workload " + args.workload);
  }
  RunOutput r;
  try {
    const bool serve = args.workload == "serve_online_mix";
    if (serve) {
      r = args.trace ? run_serve_traced(args) : run_serve_timed(args);
    } else {
      r = args.trace ? run_static_traced(args) : run_static_timed(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const bool correct =
      r.checks.broken == 0 && r.checks.failed == 0 && r.checks.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"counters\": %s, \"info\": %s, \"build\": "
      "{\"type\": \"%s\", \"compiler\": \"%s\", \"assertions\": false}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.checks.attempted),
      static_cast<unsigned long long>(r.checks.failed),
      r.metrics.json().c_str(), r.counters.c_str(), r.info.c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  return 0;
}
