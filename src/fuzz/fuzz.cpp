#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "analysis/lint.hpp"
#include "sim/mutate.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango::fuzz {

namespace {

/// Seed of iteration `iter`; replaying one disagreement is
/// `tango fuzz <spec> --seed=<this> --iterations=1`.
std::uint32_t iteration_seed(std::uint32_t base, int iter) {
  return base + static_cast<std::uint32_t>(iter) * 0x9e3779b9u;
}

struct Expectation {
  std::string order;
  core::Verdict verdict;
};

struct Variant {
  std::string name;
  tr::Trace trace;
  std::vector<Expectation> expectations;  // empty = agreement-only (O3)
};

/// Runs the matrix on one variant; returns every broken invariant.
/// `report` (when non-null) accumulates counters; shrink re-evaluations
/// pass null so probes do not distort the per-engine totals.
std::vector<std::string> evaluate(const est::Spec& spec, const Variant& v,
                                  const FuzzConfig& config,
                                  const core::Options& base,
                                  FuzzReport* report,
                                  const EventsCapture* capture = nullptr) {
  MatrixResult m =
      run_matrix(spec, v.trace, config.engines, base, config.chunk, capture);
  if (report != nullptr) {
    ++report->traces_analyzed;
    for (const MatrixColumn& column : m.columns) {
      for (const EngineRun& run : column.runs) {
        ++report->verdicts;
        for (EngineTotals& t : report->totals) {
          if (t.engine == to_string(run.engine)) {
            ++t.analyses;
            t.stats += run.stats;
          }
        }
      }
    }
  }

  std::vector<std::string> failures;
  for (const MatrixColumn& column : m.columns) {
    if (!column.agreed) {
      failures.push_back("engine disagreement: " + column.disagreement);
    }
  }
  for (const Expectation& e : v.expectations) {
    if (report != nullptr) ++report->oracle_checks;
    const core::Verdict got = m.column_verdict(e.order);
    if (got == core::Verdict::Inconclusive) continue;  // budget artifact
    if (got != e.verdict) {
      failures.push_back("oracle violation: expected " +
                         std::string(core::to_string(e.verdict)) + " under " +
                         e.order + ", got " +
                         std::string(core::to_string(got)));
    }
  }
  return failures;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

std::string engines_csv(const std::vector<Engine>& engines) {
  std::string out;
  for (Engine e : engines) {
    if (!out.empty()) out += ',';
    out += std::string(to_string(e));
  }
  return out;
}

std::string write_bundle(const FuzzConfig& config, const Disagreement& d) {
  namespace fs = std::filesystem;
  // Serialized across concurrent iterations; the per-(spec,seed,variant)
  // file names never collide, but create_directories races do.
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  fs::create_directories(config.out_dir);
  const std::string stem = config.out_dir + "/" + d.spec + "-seed" +
                           std::to_string(d.iteration_seed) + "-" + d.variant;
  const std::string trace_path = stem + ".tr";
  std::ofstream(trace_path, std::ios::binary) << d.trace_text;

  std::ofstream meta(stem + ".repro.txt", std::ios::binary);
  meta << "spec:       builtin:" << d.spec << "\n"
       << "seed:       " << d.iteration_seed << " (iteration " << d.iteration
       << ")\n"
       << "variant:    " << d.variant << "\n"
       << "engines:    " << engines_csv(config.engines) << "\n"
       << "chunk:      " << config.chunk << "\n"
       << "budget:     " << config.max_transitions << " transitions\n"
       << "shrunk:     " << d.shrunk_events << " of " << d.original_events
       << " events\n"
       << "failure:    " << d.detail << "\n"
       << "replay all: tango fuzz " << d.spec << " --seed="
       << d.iteration_seed << " --iterations=1\n"
       << "replay one: tango analyze builtin:" << d.spec << " " << trace_path
       << " --order=<preset from the failure line>\n";
  return trace_path;
}

}  // namespace

tr::Trace shrink_to_minimal_failing_prefix(const tr::Trace& trace,
                                           const FailPredicate& fails) {
  std::size_t lo = 0;
  std::size_t hi = trace.events().size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails(sim::truncate(trace, mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  tr::Trace candidate = sim::truncate(trace, hi);
  if (hi < trace.events().size() && !fails(candidate)) {
    return sim::copy_trace(trace);  // non-monotone failure: keep it whole
  }
  return candidate;
}

std::vector<std::string> fuzzable_builtin_specs() {
  std::vector<std::string> names;
  for (const auto& [name, text] : specs::all_builtin_specs()) {
    est::Spec spec = est::compile_spec(text);
    if (!stimulus_alphabet(spec).empty()) names.emplace_back(name);
  }
  return names;
}

std::string FuzzReport::to_json() const {
  std::ostringstream os;
  os << "{\"iterations\":" << iterations
     << ",\"traces_analyzed\":" << traces_analyzed
     << ",\"verdicts\":" << verdicts << ",\"oracle_checks\":" << oracle_checks
     << ",\"disagreements\":" << disagreements.size() << ",\"engines\":{";
  bool first = true;
  for (const EngineTotals& t : totals) {
    if (!first) os << ',';
    first = false;
    os << '"' << t.engine << "\":{\"analyses\":" << t.analyses
       << ",\"stats\":" << t.stats.to_json() << '}';
  }
  os << "}}";
  return os.str();
}

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << iterations << " iterations, " << traces_analyzed
     << " trace variants, " << verdicts << " verdicts, " << oracle_checks
     << " oracle checks, " << disagreements.size() << " disagreement(s)\n";
  for (const EngineTotals& t : totals) {
    os << "  " << t.engine << ": analyses=" << t.analyses << " "
       << t.stats.summary() << "\n";
  }
  return os.str();
}

FuzzReport run_fuzz(const FuzzConfig& config, std::ostream* log) {
  FuzzReport report;
  for (Engine e : config.engines) {
    report.totals.push_back(
        EngineTotals{std::string(to_string(e)), 0, core::Stats{}});
  }

  const std::vector<std::string> names =
      config.specs.empty() ? fuzzable_builtin_specs() : config.specs;
  std::vector<est::Spec> compiled;
  compiled.reserve(names.size());
  for (const std::string& name : names) {
    std::string_view text = specs::builtin_spec(name);
    if (text.empty()) {
      throw CompileError({}, "fuzz: unknown built-in spec '" + name + "'");
    }
    compiled.push_back(est::compile_spec(text));
  }
  if (compiled.empty()) return report;

  if (config.lint_specs) {
    // A seed spec that fails lint poisons the whole campaign (an unguarded
    // non-progress cycle diverges every DFS run; a provably-faulting guard
    // turns every iteration into the same fault) — reject it up front.
    // Warning-level findings (priority shadowing, guard overlap) are fair
    // game for fuzzing and merely labelled.
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      const analysis::LintReport lr = analysis::lint(compiled[i]);
      if (lr.has_errors()) {
        throw CompileError({}, "fuzz: spec '" + names[i] +
                                   "' rejected by lint:\n" + lr.render());
      }
      if (log != nullptr && lr.has_warnings()) {
        *log << "fuzz: note: spec '" << names[i]
             << "' has lint warnings (fuzzing anyway)\n";
      }
    }
  }

  core::Options base = core::Options::none();
  base.max_transitions = config.max_transitions;
  base.deadline_ms = config.deadline_ms;
  base.checkpoint = config.checkpoint;
  if (!config.events_dir.empty()) {
    std::filesystem::create_directories(config.events_dir);
  }

  // One self-contained iteration; the `report`/`log` parameters shadow the
  // captured outer ones so a concurrent run can hand in a private delta
  // and a private log buffer.
  auto run_one_iteration = [&](int iter, FuzzReport& report,
                               std::ostream* log) {
    ++report.iterations;
    const std::size_t si =
        static_cast<std::size_t>(iter) % compiled.size();
    const est::Spec& spec = compiled[si];
    const std::uint32_t iseed = iteration_seed(config.seed, iter);
    std::mt19937 rng(iseed);

    sim::SimOptions so;
    so.seed = iseed;
    so.max_steps = config.sim_max_steps;
    so.recording = std::uniform_int_distribution<int>(0, 3)(rng) == 0
                       ? sim::InputRecording::AtArrival
                       : sim::InputRecording::AtConsumption;
    sim::SimResult sim =
        sim::simulate(spec, synthesize_feeds(spec, rng, config.generator), so);
    const std::size_t n = sim.trace.events().size();
    const bool aborted = sim.note == "transition aborted" ||
                         sim.note == "initializer aborted";

    std::vector<Variant> variants;
    {
      Variant v{"simulated", sim::copy_trace(sim.trace), {}};
      if (!aborted) {
        if (so.recording == sim::InputRecording::AtConsumption) {
          // O1: fully observed recording — valid under every preset.
          for (const char* order : kOrderPresets) {
            v.expectations.push_back(Expectation{order, core::Verdict::Valid});
          }
        } else if (sim.completed) {
          // O1 under queued observation: only NR is sound (§2.4.2), and
          // arrival-recorded-but-unconsumed inputs require a completed run.
          v.expectations.push_back(Expectation{"NR", core::Verdict::Valid});
        }
      }
      variants.push_back(std::move(v));
    }
    if (sim::has_mutable_output_param(sim.trace)) {
      // O2: the edited parameter is unproducible, under any ordering.
      Variant v{"mutate-last-output",
                sim::mutate_last_output_param(sim.trace),
                {}};
      for (const char* order : kOrderPresets) {
        v.expectations.push_back(Expectation{order, core::Verdict::Invalid});
      }
      variants.push_back(std::move(v));
    }
    if (n >= 1) {
      const auto seq = static_cast<std::uint32_t>(
          std::uniform_int_distribution<std::size_t>(0, n - 1)(rng));
      variants.push_back(
          Variant{"drop-event", sim::drop_event(sim.trace, seq), {}});
    }
    if (n >= 2) {
      const auto seq = static_cast<std::uint32_t>(
          std::uniform_int_distribution<std::size_t>(0, n - 2)(rng));
      variants.push_back(
          Variant{"swap-adjacent", sim::swap_adjacent(sim.trace, seq), {}});
    }
    if (n >= 1) {
      const std::size_t keep =
          std::uniform_int_distribution<std::size_t>(0, n)(rng);
      variants.push_back(
          Variant{"truncate", sim::truncate(sim.trace, keep), {}});
    }

    for (const Variant& v : variants) {
      EventsCapture capture;
      if (!config.events_dir.empty()) {
        capture.dir = config.events_dir;
        capture.stem =
            names[si] + "-seed" + std::to_string(iseed) + "-" + v.name;
        capture.spec_ref = "builtin:" + names[si];
      }
      const std::vector<std::string> failures =
          evaluate(spec, v, config, base, &report,
                   config.events_dir.empty() ? nullptr : &capture);
      if (failures.empty()) continue;

      // Only engine-agreement failures are prefix-shrinkable: the engines
      // must agree on ANY trace, so a disagreeing prefix is the same bug.
      // Oracle expectations are not prefix-closed (a prefix of a valid
      // trace is usually invalid), so those are reported unshrunk — and
      // shrink probes must ignore them, or a legitimately-invalid prefix
      // would mask the original failure.
      const bool shrinkable =
          std::any_of(failures.begin(), failures.end(),
                      [](const std::string& f) {
                        return f.starts_with("engine disagreement");
                      });
      tr::Trace shrunk = sim::copy_trace(v.trace);
      std::vector<std::string> shrunk_failures;
      if (shrinkable) {
        const FailPredicate still_disagrees = [&](const tr::Trace& t) {
          Variant probe{v.name, sim::copy_trace(t), {}};
          return !evaluate(spec, probe, config, base, nullptr).empty();
        };
        shrunk = shrink_to_minimal_failing_prefix(v.trace, still_disagrees);
        Variant shrunk_variant{v.name, sim::copy_trace(shrunk), {}};
        shrunk_failures = evaluate(spec, shrunk_variant, config, base, nullptr);
      }

      Disagreement d;
      d.spec = names[si];
      d.iteration_seed = iseed;
      d.iteration = iter;
      d.variant = v.name;
      d.detail = join(shrunk_failures.empty() ? failures : shrunk_failures,
                      "; ");
      d.trace_text = tr::to_text(spec, shrunk);
      d.original_events = v.trace.events().size();
      d.shrunk_events = shrunk.events().size();
      if (!config.out_dir.empty()) d.bundle_path = write_bundle(config, d);
      if (log != nullptr) {
        *log << "fuzz: DISAGREEMENT spec=" << d.spec << " seed=" << iseed
             << " variant=" << d.variant << " (" << d.shrunk_events << "/"
             << d.original_events << " events after shrink)\n  " << d.detail
             << "\n";
        if (!d.bundle_path.empty()) {
          *log << "  bundle: " << d.bundle_path << "\n";
        }
      }
      report.disagreements.push_back(std::move(d));
    }

    if (config.verbose && log != nullptr) {
      *log << "fuzz: iteration " << iter << " spec=" << names[si]
           << " seed=" << iseed << " events=" << n << " variants="
           << variants.size() << "\n";
    }
  };

  const int jobs_raw =
      config.jobs == 0 ? static_cast<int>(std::thread::hardware_concurrency())
                       : config.jobs;
  const int jobs = std::max(1, std::min(jobs_raw, config.iterations));
  if (jobs <= 1) {
    for (int iter = 0; iter < config.iterations; ++iter) {
      run_one_iteration(iter, report, log);
    }
    return report;
  }

  // Concurrent iterations: each writes a private report delta and log
  // buffer, merged in iteration order below, so the final report (and the
  // log text) is identical to a sequential run's.
  std::vector<FuzzReport> deltas(static_cast<std::size_t>(config.iterations));
  std::vector<std::ostringstream> logs(
      static_cast<std::size_t>(config.iterations));
  for (FuzzReport& d : deltas) {
    for (Engine e : config.engines) {
      d.totals.push_back(
          EngineTotals{std::string(to_string(e)), 0, core::Stats{}});
    }
  }
  std::atomic<int> next{0};
  std::exception_ptr failure;
  std::mutex failure_mu;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      while (true) {
        const int iter = next.fetch_add(1);
        if (iter >= config.iterations) return;
        const auto i = static_cast<std::size_t>(iter);
        try {
          run_one_iteration(iter, deltas[i],
                            log != nullptr ? &logs[i] : nullptr);
        } catch (...) {
          std::lock_guard<std::mutex> lock(failure_mu);
          if (failure == nullptr) failure = std::current_exception();
          return;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  if (failure != nullptr) std::rethrow_exception(failure);

  for (std::size_t i = 0; i < deltas.size(); ++i) {
    FuzzReport& d = deltas[i];
    report.iterations += d.iterations;
    report.traces_analyzed += d.traces_analyzed;
    report.verdicts += d.verdicts;
    report.oracle_checks += d.oracle_checks;
    for (const EngineTotals& t : d.totals) {
      for (EngineTotals& u : report.totals) {
        if (u.engine == t.engine) {
          u.analyses += t.analyses;
          u.stats += t.stats;
        }
      }
    }
    for (Disagreement& dd : d.disagreements) {
      report.disagreements.push_back(std::move(dd));
    }
    if (log != nullptr) {
      const std::string text = logs[i].str();
      if (!text.empty()) *log << text;
    }
  }
  return report;
}

}  // namespace tango::fuzz
