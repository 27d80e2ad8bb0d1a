#include "core/obs_record.hpp"

#include <stdexcept>

namespace tango::core {

namespace {

void flag_bool(std::string& out, const char* key, bool value) {
  out += '"';
  out += key;
  out += "\":";
  out += value ? "true" : "false";
  out += ',';
}

void flag_u64(std::string& out, const char* key, std::uint64_t value) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
  out += ',';
}

void flag_list(std::string& out, const char* key,
               const std::vector<std::string>& values) {
  out += '"';
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += values[i];  // canonical ip names: no escaping needed
    out += '"';
  }
  out += "],";
}

bool read_bool(const obs::JsonValue& flags, const char* key, bool fallback) {
  const obs::JsonValue* f = flags.find(key);
  if (f == nullptr) return fallback;
  if (!f->is_bool()) {
    throw std::runtime_error(std::string("flags: '") + key +
                             "' is not a boolean");
  }
  return f->boolean;
}

std::int64_t read_int(const obs::JsonValue& flags, const char* key,
                      std::int64_t fallback) {
  const obs::JsonValue* f = flags.find(key);
  if (f == nullptr) return fallback;
  if (!f->is_number() || !f->is_integer) {
    throw std::runtime_error(std::string("flags: '") + key +
                             "' is not an integer");
  }
  return f->integer;
}

std::vector<std::string> read_list(const obs::JsonValue& flags,
                                   const char* key) {
  std::vector<std::string> out;
  const obs::JsonValue* f = flags.find(key);
  if (f == nullptr) return out;
  if (f->type != obs::JsonValue::Type::Array) {
    throw std::runtime_error(std::string("flags: '") + key +
                             "' is not an array");
  }
  for (const obs::JsonValue& item : f->array) {
    if (!item.is_string()) {
      throw std::runtime_error(std::string("flags: '") + key +
                               "' has a non-string element");
    }
    out.push_back(item.string);
  }
  return out;
}

}  // namespace

std::string options_flags_json(const Options& o) {
  // Alphabetical key order, matching obs::canonical, so a recorded header
  // compares equal to a freshly fingerprinted one byte-for-byte.
  std::string out = "{";
  flag_bool(out, "check_input_wrt_output", o.check_input_wrt_output);
  flag_bool(out, "check_ip_order", o.check_ip_order);
  flag_bool(out, "check_output_wrt_input", o.check_output_wrt_input);
  out += "\"checkpoint\":\"";
  out += to_string(o.checkpoint);
  out += "\",";
  flag_u64(out, "deadline_ms", o.deadline_ms);
  flag_bool(out, "deterministic", o.deterministic);
  flag_list(out, "disabled_ips", o.disabled_ips);
  flag_bool(out, "hash_states", o.hash_states);
  flag_bool(out, "initial_state_search", o.initial_state_search);
  flag_bool(out, "invariant_prune", o.invariant_prune);
  flag_u64(out, "jobs", static_cast<std::uint64_t>(o.jobs));
  flag_u64(out, "max_depth", static_cast<std::uint64_t>(o.max_depth));
  flag_u64(out, "max_memory", o.max_memory);
  flag_u64(out, "max_transitions", o.max_transitions);
  flag_bool(out, "partial", o.partial);
  flag_bool(out, "prune_on_pgav", o.prune_on_pgav);
  flag_bool(out, "reorder_pg_nodes", o.reorder_pg_nodes);
  flag_bool(out, "static_prune", o.static_prune);
  flag_list(out, "unobservable_ips", o.unobservable_ips);
  flag_u64(out, "visited_max", o.visited_max);
  out.back() = '}';  // replace the trailing comma
  return out;
}

void options_from_flags(const obs::JsonValue& flags, Options& out) {
  if (!flags.is_object()) {
    throw std::runtime_error("flags: not a JSON object");
  }
  out.check_input_wrt_output =
      read_bool(flags, "check_input_wrt_output", out.check_input_wrt_output);
  out.check_ip_order = read_bool(flags, "check_ip_order", out.check_ip_order);
  out.check_output_wrt_input =
      read_bool(flags, "check_output_wrt_input", out.check_output_wrt_input);
  if (const obs::JsonValue* cp = flags.find("checkpoint")) {
    if (!cp->is_string() || (cp->string != "copy" && cp->string != "trail")) {
      throw std::runtime_error("flags: bad 'checkpoint' value");
    }
    out.checkpoint =
        cp->string == "copy" ? CheckpointMode::Copy : CheckpointMode::Trail;
  }
  out.deadline_ms = static_cast<std::uint64_t>(
      read_int(flags, "deadline_ms",
               static_cast<std::int64_t>(out.deadline_ms)));
  out.deterministic = read_bool(flags, "deterministic", out.deterministic);
  out.disabled_ips = read_list(flags, "disabled_ips");
  out.hash_states = read_bool(flags, "hash_states", out.hash_states);
  out.initial_state_search =
      read_bool(flags, "initial_state_search", out.initial_state_search);
  out.invariant_prune =
      read_bool(flags, "invariant_prune", out.invariant_prune);
  out.jobs = static_cast<int>(read_int(flags, "jobs", out.jobs));
  out.max_depth = static_cast<int>(read_int(flags, "max_depth", out.max_depth));
  out.max_memory = static_cast<std::uint64_t>(
      read_int(flags, "max_memory",
               static_cast<std::int64_t>(out.max_memory)));
  out.max_transitions = static_cast<std::uint64_t>(
      read_int(flags, "max_transitions",
               static_cast<std::int64_t>(out.max_transitions)));
  out.partial = read_bool(flags, "partial", out.partial);
  out.prune_on_pgav = read_bool(flags, "prune_on_pgav", out.prune_on_pgav);
  out.reorder_pg_nodes =
      read_bool(flags, "reorder_pg_nodes", out.reorder_pg_nodes);
  out.static_prune = read_bool(flags, "static_prune", out.static_prune);
  out.unobservable_ips = read_list(flags, "unobservable_ips");
  out.visited_max = static_cast<std::uint64_t>(
      read_int(flags, "visited_max",
               static_cast<std::int64_t>(out.visited_max)));
}

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
  e.flags = options_flags_json(options);
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
