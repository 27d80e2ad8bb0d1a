#include "obs/stream.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "obs/json.hpp"

namespace tango::obs {

ReadResult read_events(std::string_view text) {
  ReadResult result;
  std::unordered_set<std::uint64_t> node_ids;
  bool saw_any = false;
  bool saw_run = false;
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    auto error = [&](std::string message) {
      result.errors.push_back({line_no, std::move(message)});
    };
    if (!is_valid_utf8(line)) {
      // The writer escapes every non-UTF-8 byte; a raw byte here means the
      // stream was produced (or corrupted) by something else.
      error("line is not valid UTF-8");
      continue;
    }
    JsonValue v;
    try {
      v = parse_json(line);
    } catch (const std::runtime_error& err) {
      error(err.what());
      continue;
    }
    const std::size_t errors_before = result.errors.size();
    Event e;
    if (!decode_event(v, line_no, e, result.errors)) continue;
    // Stream rules that read a field skip lines where decoding failed,
    // so one broken value is reported once, not again by every rule.
    const bool clean = result.errors.size() == errors_before;
    if (!saw_any && e.kind != EventKind::Run) {
      error("stream does not start with a run header");
    }
    saw_any = true;
    if (e.kind == EventKind::Run) {
      if (saw_run) error("duplicate run header");
      saw_run = true;
      if (clean && e.version != kEventSchemaVersion) {
        error("unsupported schema version " + std::to_string(e.version) +
              " (expected " + std::to_string(kEventSchemaVersion) + ")");
      }
    }
    // id 0 is a missing or broken id, already reported.
    if ((e.kind == EventKind::Enter || e.kind == EventKind::Fire) &&
        e.id != 0 && !node_ids.insert(e.id).second) {
      error("duplicate node id " + std::to_string(e.id));
    }
    if (!clean) continue;
    if (v.find("parent") != nullptr) {
      if (e.parent == 0 && e.kind != EventKind::Verdict) {
        error("parent must be a node id (0 is only valid for verdict "
              "events with no witness)");
      } else if (e.parent != 0 && node_ids.count(e.parent) == 0) {
        error("parent " + std::to_string(e.parent) +
              " does not reference an earlier enter/fire event");
      }
    }
    result.events.push_back(std::move(e));
  }
  if (!saw_any) result.errors.push_back({0, "empty event stream"});
  return result;
}

ReadResult read_events_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open events file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_events(buffer.str());
}

StreamStats summarize(const std::vector<Event>& events) {
  StreamStats s;
  std::set<std::int32_t> workers;
  for (const Event& e : events) {
    ++s.by_kind[std::string(to_string(e.kind))];
    if (e.worker >= 0) workers.insert(e.worker);
    if (e.depth > s.max_depth) s.max_depth = e.depth;
    switch (e.kind) {
      case EventKind::Enter:
      case EventKind::Fire:
        ++s.nodes;
        if (e.ok) {
          ++s.applied_ok;
        } else {
          ++s.vetoed;
        }
        break;
      case EventKind::Run:
        s.engine = e.engine;
        break;
      case EventKind::Verdict:
        s.verdict = e.verdict;
        break;
      default:
        break;
    }
  }
  s.workers = static_cast<std::int32_t>(workers.size());
  return s;
}

std::string stats_to_json(const StreamStats& s) {
  std::string out = "{";
  char buf[64];
  auto num = [&](const char* key, std::uint64_t value, bool first = false) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",", key,
                  value);
    out += buf;
  };
  out += "\"engine\":\"" + s.engine + "\"";
  out += ",\"verdict\":\"" + s.verdict + "\"";
  num("events", [&] {
    std::uint64_t total = 0;
    for (const auto& [kind, count] : s.by_kind) {
      (void)kind;
      total += count;
    }
    return total;
  }());
  num("nodes", s.nodes);
  num("applied_ok", s.applied_ok);
  num("vetoed", s.vetoed);
  num("max_depth", static_cast<std::uint64_t>(s.max_depth));
  num("workers", static_cast<std::uint64_t>(s.workers));
  out += ",\"by_kind\":{";
  bool first = true;
  for (const auto& [kind, count] : s.by_kind) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, kind.c_str(), count);
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace tango::obs
