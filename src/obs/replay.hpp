// Replay oracle over a recorded search-event stream (docs/OBSERVABILITY.md).
//
// replay() re-executes the stream against a fresh machine built from the
// run header's recorded flags: every `enter` re-runs its initializer, every
// ok `fire` must name a transition that generate() re-derives as enabled at
// the recorded parent node, re-applying it must succeed and must reproduce
// the recorded post-state hash, and the final `verdict` must balance the
// stream (counter equalities, witness consistency). A stream that replays
// clean is strong evidence the engine's search was sound — the oracle
// shares generate/apply with the engines but none of their scheduling,
// pruning or checkpointing machinery.
//
// Engine-specific relaxations (see docs/EVENTS.md):
//   - "mdfs" streams are recorded against a *growing* trace; vetoed fires
//     and per-node all_done flags reflect a prefix of the final trace and
//     are not re-checked, and hidden initializer retries make the TE
//     balance a lower bound rather than an equality.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "trace/event.hpp"

namespace tango::est {
class Spec;
}

namespace tango::obs {

struct ReplayIssue {
  std::size_t event_index = 0;  // 0-based position in the stream
  std::string message;
};

struct ReplayReport {
  std::string engine;   // from the run header
  std::string verdict;  // recorded verdict ("" when the stream has none)
  std::uint64_t witness = 0;
  std::size_t nodes_replayed = 0;  // ok enter/fire states reconstructed
  std::size_t fires_checked = 0;   // fire events re-executed
  std::vector<ReplayIssue> issues;

  [[nodiscard]] bool ok() const { return issues.empty(); }
  /// "" when ok(); otherwise "event N: message" for the first issue.
  [[nodiscard]] std::string first_issue() const;
};

/// Replays an already-parsed stream. `trace` must be the same trace the
/// recording run analyzed (its final extent, for on-line runs).
[[nodiscard]] ReplayReport replay(const est::Spec& spec,
                                  const tr::Trace& trace,
                                  const std::vector<Event>& events);

/// Reads `text` with read_events and replays it. A stream with read
/// errors is not replayed: each error becomes an issue instead.
[[nodiscard]] ReplayReport replay_stream(const est::Spec& spec,
                                         const tr::Trace& trace,
                                         const std::string& text);

}  // namespace tango::obs
