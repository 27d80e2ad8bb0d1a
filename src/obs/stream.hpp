// Reading recorded event streams back: JSONL text -> Event records, plus
// the aggregation behind `tango events stats`. read_events is the one
// reader behind `tango events check|stats|replay` and obs::replay_stream:
// it decodes each line by the field table (obs/schema.hpp) and checks the
// stream-level rules in the same pass.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.hpp"
#include "obs/schema.hpp"

namespace tango::obs {

struct ReadResult {
  std::vector<Event> events;
  std::vector<ReadError> errors;
};

/// Reads a whole JSONL stream (blank lines are skipped) in one pass: each
/// line must be valid UTF-8, parse as JSON and decode cleanly by its
/// kind's rows; the first event must be a `run` header of version
/// kEventSchemaVersion, there is one header, enter/fire ids are unique,
/// and every non-zero `parent` names an earlier enter/fire id (0 only on a
/// verdict with no witness). `events` holds the lines that decoded
/// cleanly; the stream is well-formed exactly when `errors` is empty.
[[nodiscard]] ReadResult read_events(std::string_view text);

/// Reads and parses a JSONL file. Throws std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] ReadResult read_events_file(const std::string& path);

/// `tango events stats`: per-kind counts plus headline figures.
struct StreamStats {
  std::map<std::string, std::uint64_t> by_kind;  // kind name -> count
  std::uint64_t nodes = 0;          // enter + fire events (ok or not)
  std::uint64_t applied_ok = 0;     // enter/fire with ok=true
  std::uint64_t vetoed = 0;         // enter/fire with ok=false
  std::int32_t max_depth = 0;
  std::int32_t workers = 0;         // distinct worker ids (>= 0) seen
  std::string engine;               // from the run header, "" if absent
  std::string verdict;              // from the verdict event, "" if absent
};

[[nodiscard]] StreamStats summarize(const std::vector<Event>& events);

/// Renders the summary as a small JSON object (stable key order).
[[nodiscard]] std::string stats_to_json(const StreamStats& s);

}  // namespace tango::obs
