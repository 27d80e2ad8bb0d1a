#include "core/obs_record.hpp"

#include "core/option_table.hpp"

namespace tango::core {

void emit_run_header(obs::Sink& sink, const est::Spec& spec,
                     const Options& options, const char* engine) {
  obs::Event e;
  e.kind = obs::EventKind::Run;
  e.version = obs::kEventSchemaVersion;
  e.engine = engine;
  e.spec = spec.name;
  e.spec_ref = sink.spec_ref();
  e.trace_ref = sink.trace_ref();
  e.order = options.order_mode_name();
  e.flags = write_options(options, kHeader);
  sink.emit(e);
}

std::uint64_t emit_enter(obs::Sink* sink, int init, int start_state,
                         bool applied, bool ok, bool all_done,
                         std::uint64_t state_hash) {
  if (sink == nullptr) return 0;
  obs::Event e;
  e.kind = obs::EventKind::Enter;
  e.id = sink->next_id();
  e.init = init;
  e.start_state = start_state;
  e.applied = applied;
  e.ok = ok;
  e.all_done = all_done;
  e.state_hash = state_hash;
  sink->emit(e);
  return e.id;
}

void emit_at_node(obs::Sink* sink, obs::EventKind kind, std::uint64_t origin,
                  int depth, int worker, std::uint64_t count) {
  if (sink == nullptr) return;
  obs::Event e;
  e.kind = kind;
  e.parent = origin;
  e.worker = worker;
  e.depth = depth;
  e.count = count;
  sink->emit(e);
}

void emit_verdict(obs::Sink& sink, std::uint64_t witness,
                  std::string_view verdict, const Stats& stats,
                  std::string_view reason) {
  obs::Event e;
  e.kind = obs::EventKind::Verdict;
  e.parent = witness;
  e.verdict = std::string(verdict);
  e.reason = std::string(reason);
  e.stats_json = stats.to_json_counters();
  sink.emit(e);
}

ResolvedOptions resolve_timed(const est::Spec& spec, const Options& options,
                              PhaseMetrics& phase) {
  PhaseTimer timer(phase);
  return ResolvedOptions(spec, options);
}

}  // namespace tango::core
