// One analysis session = one accepted connection (docs/SERVER.md
// §lifecycle): hello -> accepted -> chunk*/eof/cancel -> verdict*/stats
// or error. A session runs entirely on its worker thread; the trace
// arrives through a socket-fed tr::ChunkSource, so MDFS resumes exactly
// as if a dynamic trace file grew (§3.1.1). Static-mode sessions buffer
// the chunks and run the one-shot DFS/ParDfs engines at eof.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/options.hpp"

namespace tango::srv {

class SpecRegistry;

/// Host-level knobs every session shares (owned by the Server; read-only
/// here).
struct SessionConfig {
  /// Base options; the hello frame overlays its members on a copy
  /// (core::read_options), and can only tighten the budgets and jobs.
  core::Options default_options;
  /// Non-empty: each session writes its obs event stream (docs/EVENTS.md)
  /// to <events_dir>/session-<id>.jsonl.
  std::string events_dir;
  /// Search steps per pump between socket polls.
  std::uint64_t steps_per_round = 4096;
  /// How long the hello frame may take to arrive before the session is
  /// dropped (keeps idle connects from pinning workers).
  int hello_timeout_ms = 5000;
};

struct SessionContext {
  const SpecRegistry* registry = nullptr;
  const SessionConfig* config = nullptr;
  /// Set by Server::shutdown: in-flight sessions conclude Inconclusive
  /// with reason "shutdown" at the next pump boundary.
  const std::atomic<bool>* draining = nullptr;
  std::uint64_t session_id = 0;
};

/// Serves one connection to completion and closes `fd`. Never throws —
/// protocol violations become `error` frames, a vanished peer is a quiet
/// teardown.
void run_session(int fd, const SessionContext& ctx);

}  // namespace tango::srv
