// Client side of the serve protocol: `tango submit` and the tests drive
// this one call. The trace can be sent whole (one chunk + eof, the static
// degenerate case) or trickled in event-sized chunks with a delay, which
// exercises the server's §3.1.1 resume-on-growth path and collects the
// interim assessments a monitoring client would see.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"

namespace tango::srv {

struct SubmitOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string spec;           // registry ref, e.g. "builtin:abp"
  /// none | io | ip | full; replaces the order checks in `options`.
  std::string order = "io";
  std::string mode = "online";
  /// Trace lines per chunk frame; 0 sends the whole trace as one chunk.
  std::size_t chunk_size = 0;
  /// Sleep between chunk frames (lets MDFS quiesce between growths).
  std::uint64_t chunk_delay_ms = 0;
  /// Analysis options: the hello carries their Hello rows
  /// (core/option_table.hpp) that differ from a default Options.
  core::Options options;
  /// Overall wait for server replies, per read.
  int reply_timeout_ms = 30000;
};

struct SubmitResult {
  /// True when a final verdict arrived; `error` explains otherwise.
  bool completed = false;
  /// True when the server answered `overloaded` instead of accepting.
  bool overloaded = false;
  std::string final_status;  // "valid", "invalid", ...
  std::string reason;        // inconclusive reason token, "" otherwise
  /// Interim statuses in arrival order ("valid so far", "likely invalid").
  std::vector<std::string> interim;
  std::string stats_json;      // final stats frame payload ("{}" if none)
  std::string server_version;  // from the accepted frame
  std::uint64_t session_id = 0;
  std::string error;  // transport/protocol/server error description
};

/// Runs one session over `trace_text`. Never throws; failures land in
/// `result.error`.
[[nodiscard]] SubmitResult submit_trace(const std::string& trace_text,
                                        const SubmitOptions& opts);

}  // namespace tango::srv
