// Structured search events (docs/EVENTS.md). Every engine narrates its
// search through these records: the `fire` events form a tree via `parent`
// (each fire points at the event that produced its source state), which
// makes a recorded stream replayable independently of the engine's
// scheduling — a stolen subtree's events still name the same parents a
// sequential run would. The taxonomy follows the GenTra4CP idea of one
// generic, schema'd trace format over heterogeneous engines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tango::obs {

/// Version of the event schema (docs/schema/search_events.schema.json).
/// Bump on any field rename, removal, or semantic change; `run` headers
/// record it and the readers reject streams from a different major.
inline constexpr std::uint32_t kEventSchemaVersion = 2;

enum class EventKind : std::uint8_t {
  Run,                // stream header: engine, spec, options fingerprint
  Enter,              // a search root: initializer applied (or attempted)
  Fire,               // one apply of a generated firing (ok or vetoed)
  Backtrack,          // a node's alternatives are exhausted; popped
  PruneVisited,       // §4.2 hash table: state seen before, subtree cut
  PruneShadow,        // lower-priority candidates dropped after generation
  CheckpointSave,     // save() at a branching node (mark in `count`)
  CheckpointRestore,  // restore() to a mark for the next sibling
  Steal,              // a worker ran a continuation published by another
  Evict,              // --visited-max overflow dropped a resident hash
  Verdict,            // final verdict + deterministic counter snapshot
};

[[nodiscard]] constexpr std::string_view to_string(EventKind k) {
  switch (k) {
    case EventKind::Run: return "run";
    case EventKind::Enter: return "enter";
    case EventKind::Fire: return "fire";
    case EventKind::Backtrack: return "backtrack";
    case EventKind::PruneVisited: return "prune.visited";
    case EventKind::PruneShadow: return "prune.shadow";
    case EventKind::CheckpointSave: return "checkpoint.save";
    case EventKind::CheckpointRestore: return "checkpoint.restore";
    case EventKind::Steal: return "steal";
    case EventKind::Evict: return "evict";
    case EventKind::Verdict: return "verdict";
  }
  return "?";
}

/// Inverse of to_string; returns false on an unknown kind name.
[[nodiscard]] bool parse_kind(std::string_view name, EventKind& out);

/// One event. A deliberately flat bag of fields; which ones are meaningful
/// depends on `kind` (see docs/EVENTS.md), and the JSONL writer serializes
/// only those. Events carry NO wall-clock data: a stream from a
/// deterministic run is byte-identical across runs, which the golden tests
/// and `tango events diff` rely on.
struct Event {
  EventKind kind = EventKind::Fire;

  /// Node identity for `enter`/`fire` events: monotonically assigned per
  /// stream (Sink::next_id), never 0. Other kinds leave it 0.
  std::uint64_t id = 0;
  /// For `fire`: the enter/fire event whose resulting state this firing
  /// applied from. For prune/backtrack/checkpoint/steal: the node event
  /// the operation happened at. For `verdict`: the witness node (the event
  /// whose state completed the trace), 0 when there is none.
  std::uint64_t parent = 0;

  std::int32_t worker = -1;  // worker index; -1 in sequential engines
  std::int32_t depth = 0;    // search-tree depth of the node

  std::int32_t transition = -1;   // fire: transition index
  std::int32_t input_event = -1;  // fire: consumed trace seq, or -1
  std::int32_t init = -1;         // enter: initializer index
  std::int32_t start_state = -1;  // enter: FSM start state of this root
  bool synthesized = false;       // fire: unobservable-ip input (§5.2)
  /// enter: true when this event performed the apply_initializer call
  /// (initial-state-search clones share one apply and record false).
  bool applied = true;
  bool ok = false;        // enter/fire: the apply succeeded
  bool retry = false;     // fire (on-line): vetoed only until more events
  bool all_done = false;  // enter/fire: state explains the complete trace
  /// enter/fire (ok only): composite SearchState hash of the new state.
  std::uint64_t state_hash = 0;
  /// checkpoint.*: the mark; prune.shadow / evict: how many were dropped.
  std::uint64_t count = 0;

  // --- run header only ---
  std::uint32_t version = 0;
  std::string engine;     // dfs | mdfs | par | batch
  std::string spec;       // specification name (est::Spec::name)
  std::string spec_ref;   // how to reload it: path or builtin:<name> ("" ok)
  std::string trace_ref;  // trace file path ("" when fed from memory)
  std::string order;      // NR | IO | IP | FULL (Options::order_mode_name)
  /// Replay-relevant option fingerprint as a JSON object (see
  /// core/obs_record.cpp); replay rebuilds its Options from this.
  std::string flags;

  // --- verdict only ---
  std::string verdict;     // core::to_string(Verdict)
  /// Exhausted resource behind an inconclusive verdict: one of
  /// "transitions" | "depth" | "deadline" | "memory" | "shutdown";
  /// "" otherwise. Serialized only when non-empty (schema v2).
  std::string reason;
  std::string stats_json;  // Stats::to_json_counters(): no timing fields
};

}  // namespace tango::obs
