// Glue between the engines and the observability layer (src/obs/): the
// run-header / enter / node / verdict emission the DFS and MDFS share
// (the header's `flags` object comes from core/option_table.hpp), and the
// tiny context the generator needs to attribute
// its prune events to the node being expanded.
#pragma once

#include <cstdint>
#include <string>

#include "core/options.hpp"
#include "core/stats.hpp"
#include "obs/sink.hpp"

namespace tango::core {

/// Where an emission happens: the node event (enter/fire id) being
/// expanded, the worker doing it, and the node's depth. Passed by value
/// into generate(); a default-constructed context (null sink) disables
/// emission entirely.
struct ObsCtx {
  obs::Sink* sink = nullptr;
  std::uint64_t node = 0;
  std::int32_t worker = -1;
  std::int32_t depth = 0;
};

/// Emits the stream's `run` header.
void emit_run_header(obs::Sink& sink, const est::Spec& spec,
                     const Options& options, const char* engine);

/// Emits an `enter` event for one search root (start_state -1 and ok=false
/// for an initializer that failed); returns its node id, 0 without a sink.
std::uint64_t emit_enter(obs::Sink* sink, int init, int start_state,
                         bool applied, bool ok, bool all_done,
                         std::uint64_t state_hash);

/// Emits an id-less event (backtrack, checkpoint save/restore, steal)
/// attributed to the node whose enter/fire event is `origin`. No-op
/// without a sink. The defaults suit MDFS: one thread, and no checkpoint
/// marks since every node is a materialized snapshot.
void emit_at_node(obs::Sink* sink, obs::EventKind kind, std::uint64_t origin,
                  int depth, int worker = -1, std::uint64_t count = 0);

/// Emits the final `verdict` event. `witness` is the enter/fire event
/// whose state completed the trace (0 when there is none). The stats
/// snapshot is serialized without timing so deterministic runs stay
/// byte-stable. `reason` names the exhausted resource on an inconclusive
/// verdict ("" on every other verdict).
void emit_verdict(obs::Sink& sink, std::uint64_t witness,
                  std::string_view verdict, const Stats& stats,
                  std::string_view reason = "");

/// ResolvedOptions construction timed into `phase` (guard-solver cost) —
/// shaped for constructor init lists, where a scoped PhaseTimer can't go.
[[nodiscard]] ResolvedOptions resolve_timed(const est::Spec& spec,
                                            const Options& options,
                                            PhaseMetrics& phase);

}  // namespace tango::core
