#include "fuzz/differential.hpp"

#include <fstream>
#include <memory>
#include <sstream>

#include "core/option_table.hpp"
#include "core/parallel_dfs.hpp"
#include "obs/sink.hpp"
#include "support/text.hpp"
#include "trace/dynamic_source.hpp"
#include "trace/trace_io.hpp"

namespace tango::fuzz {

std::string_view to_string(Engine e) {
  switch (e) {
    case Engine::Dfs: return "dfs";
    case Engine::HashDfs: return "hash-dfs";
    case Engine::Mdfs: return "mdfs";
    case Engine::ParDfs: return "par-dfs";
  }
  return "?";
}

std::vector<Engine> parse_engines(std::string_view csv) {
  if (trim(csv).empty()) return {Engine::Dfs, Engine::HashDfs, Engine::Mdfs};
  std::vector<Engine> engines;
  for (std::string_view part : split(csv, ',')) {
    const std::string name = to_lower(trim(part));
    if (name == "dfs") {
      engines.push_back(Engine::Dfs);
    } else if (name == "hash" || name == "hashdfs" || name == "hash-dfs") {
      engines.push_back(Engine::HashDfs);
    } else if (name == "mdfs" || name == "online") {
      engines.push_back(Engine::Mdfs);
    } else if (name == "par" || name == "pardfs" || name == "par-dfs" ||
               name == "parallel") {
      engines.push_back(Engine::ParDfs);
    } else {
      throw CompileError({}, "unknown engine '" + name +
                                 "' (expected dfs, hash, mdfs or par)");
    }
  }
  return engines;
}

core::Verdict to_verdict(core::OnlineStatus s) {
  switch (s) {
    case core::OnlineStatus::Valid: return core::Verdict::Valid;
    case core::OnlineStatus::Invalid: return core::Verdict::Invalid;
    case core::OnlineStatus::ValidSoFar: return core::Verdict::ValidSoFar;
    case core::OnlineStatus::LikelyInvalid:
      return core::Verdict::LikelyInvalid;
    case core::OnlineStatus::Searching:
    case core::OnlineStatus::Inconclusive:
      return core::Verdict::Inconclusive;
  }
  return core::Verdict::Inconclusive;
}

namespace {

EngineRun run_mdfs(const est::Spec& spec, const tr::Trace& trace,
                   const core::Options& options, std::size_t chunk) {
  EngineRun run;
  run.engine = Engine::Mdfs;

  core::CpuTimer timer;
  tr::MemoryFeed feed(spec);
  core::OnlineConfig config;
  config.options = options;
  core::OnlineAnalyzer analyzer(spec, feed, config);

  // Deliver the trace in chunks, searching between deliveries, so the
  // analyzer exercises the PG save/regenerate machinery instead of seeing
  // a complete trace at its first poll.
  const std::size_t step = chunk == 0 ? trace.events().size() + 1 : chunk;
  for (std::size_t i = 0; i < trace.events().size(); ++i) {
    feed.push(trace.events()[i]);
    if ((i + 1) % step == 0) (void)analyzer.step_round(4096);
  }
  if (trace.eof()) feed.push_eof();
  const core::OnlineStatus status = analyzer.run(1u << 18, /*idle_rounds=*/4);
  analyzer.finalize_stream();  // no-op unless options carry a sink

  run.verdict = to_verdict(status);
  // With eof delivered the tree is finite: a non-conclusive terminal
  // status means the run loop went idle (budget/depth clip), which in the
  // batch verdict space is Inconclusive.
  if (trace.eof() && !analyzer.conclusive()) {
    run.verdict = core::Verdict::Inconclusive;
  }
  run.stats = analyzer.stats();
  run.stats.cpu_seconds = timer.elapsed();
  return run;
}

}  // namespace

EngineRun run_engine(const est::Spec& spec, const tr::Trace& trace,
                     const core::Options& base, Engine engine,
                     std::size_t chunk) {
  core::Options options = base;
  options.hash_states = engine == Engine::HashDfs;
  if (engine == Engine::Mdfs) {
    EngineRun run = run_mdfs(spec, trace, options, chunk);
    return run;
  }
  EngineRun run;
  run.engine = engine;
  core::DfsResult r;
  if (engine == Engine::ParDfs) {
    // Verdict-level cross-check of the work-stealing engine against the
    // sequential cells; at least two workers so stealing actually happens.
    options.jobs = base.jobs > 1 ? base.jobs : 2;
    r = core::analyze_parallel(spec, trace, options);
  } else {
    r = core::analyze(spec, trace, options);
  }
  run.verdict = r.verdict;
  run.stats = r.stats;
  run.note = r.note;
  return run;
}

bool MatrixResult::all_agreed() const {
  for (const MatrixColumn& c : columns) {
    if (!c.agreed) return false;
  }
  return true;
}

core::Verdict MatrixResult::column_verdict(std::string_view order) const {
  for (const MatrixColumn& c : columns) {
    if (c.order != order) continue;
    for (const EngineRun& r : c.runs) {
      if (r.verdict != core::Verdict::Inconclusive) return r.verdict;
    }
  }
  return core::Verdict::Inconclusive;
}

MatrixResult run_matrix(const est::Spec& spec, const tr::Trace& trace,
                        const std::vector<Engine>& engines,
                        const core::Options& base, std::size_t chunk,
                        const EventsCapture* capture) {
  MatrixResult result;
  std::string trace_ref;
  if (capture != nullptr) {
    trace_ref = capture->stem + ".tr";
    std::ofstream(capture->dir + "/" + trace_ref, std::ios::binary)
        << tr::to_text(spec, trace);
  }
  for (const char* order : kOrderPresets) {
    MatrixColumn column;
    column.order = order;
    core::Options options = base;
    core::apply_order(options, to_lower(order));
    for (Engine e : engines) {
      std::unique_ptr<obs::JsonlSink> sink;
      if (capture != nullptr) {
        sink = std::make_unique<obs::JsonlSink>(
            capture->dir + "/" + capture->stem + "-" + order + "-" +
            std::string(to_string(e)) + ".jsonl");
        sink->set_refs(capture->spec_ref, trace_ref);
        options.sink = sink.get();
      }
      EngineRun run = run_engine(spec, trace, options, e, chunk);
      options.sink = nullptr;  // the sink dies with this cell
      run.order = order;
      column.runs.push_back(std::move(run));
    }

    // Agreement relation: every engine that reached a conclusive verdict
    // must have reached the SAME verdict. Inconclusive cells (exhausted
    // search budget) carry no information and are skipped.
    const EngineRun* reference = nullptr;
    for (const EngineRun& r : column.runs) {
      if (r.verdict == core::Verdict::Inconclusive) continue;
      if (reference == nullptr) {
        reference = &r;
      } else if (r.verdict != reference->verdict) {
        column.agreed = false;
      }
    }
    if (!column.agreed) {
      std::ostringstream os;
      os << "order=" << column.order << ":";
      for (const EngineRun& r : column.runs) {
        os << ' ' << to_string(r.engine) << '='
           << core::to_string(r.verdict);
      }
      column.disagreement = os.str();
    }
    result.columns.push_back(std::move(column));
  }
  return result;
}

}  // namespace tango::fuzz
