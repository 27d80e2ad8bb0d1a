// Satellite of the observability PR: JSONL serialization round-trips, the
// schema validator accepts every recorded stream and rejects structural
// corruption, and `tango events stats` aggregation matches the run that
// produced the stream.
#include "obs/stream.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/dfs.hpp"
#include "obs/json.hpp"
#include "obs/schema.hpp"
#include "obs/sink.hpp"
#include "specs/builtin_specs.hpp"
#include "../support/temp_path.hpp"

namespace tango::obs {
namespace {

constexpr const char* kAckTrace =
    "in A.x\nin A.x\nin A.x\nin B.y\nout A.ack\n";

struct Recording {
  core::DfsResult result;
  std::vector<Event> events;
  std::string text;  // JSONL
};

Recording record_ack_run(core::Options options = core::Options::none()) {
  Recording rec;
  est::Spec spec = est::compile_spec(specs::ack());
  MemorySink sink;
  sink.set_refs("builtin:ack", "");
  options.sink = &sink;
  rec.result = core::analyze_text(spec, kAckTrace, options);
  rec.events = sink.events();
  std::ostringstream os;
  for (const Event& e : rec.events) os << to_jsonl(e) << '\n';
  rec.text = os.str();
  return rec;
}

TEST(EventStream, JsonCanonicalIsFieldOrderInsensitive) {
  JsonValue a = parse_json(R"({"kind":"fire","id":3,"ok":true})");
  JsonValue b = parse_json(R"({"ok":true,"kind":"fire","id":3})");
  EXPECT_EQ(canonical(a), canonical(b));

  JsonValue c = parse_json(R"({"kind":"fire","id":4,"ok":true})");
  EXPECT_NE(canonical(a), canonical(c));
  // ...unless the differing key is ignored.
  EXPECT_EQ(canonical(a, {"id"}), canonical(c, {"id"}));
}

TEST(EventStream, FireEventRoundTrips) {
  Event e;
  e.kind = EventKind::Fire;
  e.id = 17;
  e.parent = 4;
  e.worker = 2;
  e.depth = 5;
  e.transition = 3;
  e.input_event = 9;
  e.ok = true;
  e.all_done = false;
  e.synthesized = true;
  e.state_hash = 0xdeadbeefcafe1234ULL;

  Event back;
  std::vector<ReadError> errors;
  ASSERT_TRUE(decode_event(parse_json(to_jsonl(e)), 1, back, errors));
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(back.kind, EventKind::Fire);
  EXPECT_EQ(back.id, e.id);
  EXPECT_EQ(back.parent, e.parent);
  EXPECT_EQ(back.worker, e.worker);
  EXPECT_EQ(back.depth, e.depth);
  EXPECT_EQ(back.transition, e.transition);
  EXPECT_EQ(back.input_event, e.input_event);
  EXPECT_EQ(back.ok, e.ok);
  EXPECT_EQ(back.synthesized, e.synthesized);
  EXPECT_EQ(back.state_hash, e.state_hash);  // survives the hex encoding
}

TEST(EventStream, RecordedStreamValidates) {
  Recording rec = record_ack_run();
  ASSERT_EQ(rec.result.verdict, core::Verdict::Valid);
  ASSERT_FALSE(rec.events.empty());

  const std::vector<ReadError> errors = read_events(rec.text).errors;
  EXPECT_TRUE(errors.empty());
  for (const ReadError& e : errors) {
    ADD_FAILURE() << "line " << e.line << ": " << e.message;
  }

  EXPECT_EQ(rec.events.front().kind, EventKind::Run);
  EXPECT_EQ(rec.events.front().engine, "dfs");
  EXPECT_EQ(rec.events.front().version, kEventSchemaVersion);
  EXPECT_EQ(rec.events.front().spec_ref, "builtin:ack");
  EXPECT_EQ(rec.events.back().kind, EventKind::Verdict);
  EXPECT_EQ(rec.events.back().verdict, "valid");
}

TEST(EventStream, ValidatorRejectsCorruption) {
  Recording rec = record_ack_run();
  std::vector<std::string> lines;
  {
    std::istringstream is(rec.text);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 3u);

  auto joined = [](const std::vector<std::string>& ls) {
    std::string text;
    for (const std::string& l : ls) text += l + "\n";
    return text;
  };

  // Decapitated stream: first event must be the run header.
  std::vector<std::string> headless(lines.begin() + 1, lines.end());
  EXPECT_FALSE(read_events(joined(headless)).errors.empty());

  // Unknown kind.
  std::vector<std::string> unknown = lines;
  unknown.push_back(R"({"kind":"teleport","id":999})");
  EXPECT_FALSE(read_events(joined(unknown)).errors.empty());

  // Duplicate node id: re-append an enter/fire line verbatim.
  std::vector<std::string> duped = lines;
  for (const std::string& l : lines) {
    if (l.find("\"fire\"") != std::string::npos) {
      duped.push_back(l);
      break;
    }
  }
  ASSERT_GT(duped.size(), lines.size());
  EXPECT_FALSE(read_events(joined(duped)).errors.empty());

  // A repeated key: JSON readers disagree on which copy counts.
  std::vector<std::string> repeated = lines;
  repeated[0].insert(repeated[0].size() - 1, R"(,"engine":"dfs")");
  EXPECT_FALSE(read_events(joined(repeated)).errors.empty());

  // Not JSON at all.
  std::vector<std::string> garbage = lines;
  garbage.push_back("this is not json");
  const std::vector<ReadError> errors = read_events(joined(garbage)).errors;
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors.front().line, garbage.size());
}

TEST(EventStream, ParentsAlwaysPrecedeChildren) {
  core::Options options = core::Options::full();
  options.hash_states = true;
  Recording rec = record_ack_run(options);
  std::vector<bool> seen(rec.events.size() * 2 + 2, false);
  for (const Event& e : rec.events) {
    if (e.parent != 0) {
      ASSERT_LT(e.parent, seen.size());
      EXPECT_TRUE(seen[e.parent])
          << to_string(e.kind) << " references unseen node " << e.parent;
    }
    if ((e.kind == EventKind::Enter || e.kind == EventKind::Fire) &&
        e.id < seen.size()) {
      seen[e.id] = true;
    }
  }
}

TEST(EventStream, SummarizeMatchesTheRun) {
  Recording rec = record_ack_run();
  StreamStats s = summarize(rec.events);
  EXPECT_EQ(s.engine, "dfs");
  EXPECT_EQ(s.verdict, "valid");
  EXPECT_EQ(s.by_kind.at("run"), 1u);
  EXPECT_EQ(s.by_kind.at("verdict"), 1u);

  std::uint64_t enters = 0;
  std::uint64_t fires = 0;
  std::uint64_t ok = 0;
  for (const Event& e : rec.events) {
    if (e.kind == EventKind::Enter) ++enters;
    if (e.kind == EventKind::Fire) ++fires;
    if ((e.kind == EventKind::Enter || e.kind == EventKind::Fire) && e.ok) {
      ++ok;
    }
  }
  EXPECT_EQ(s.nodes, enters + fires);
  EXPECT_EQ(s.applied_ok, ok);
  EXPECT_EQ(s.max_depth, rec.result.stats.max_depth);

  const std::string json = stats_to_json(s);
  JsonValue parsed = parse_json(json);  // throws on malformed output
  ASSERT_TRUE(parsed.is_object());
}

TEST(EventStream, VerdictCountersMatchEngineStats) {
  Recording rec = record_ack_run();
  const Event& verdict = rec.events.back();
  ASSERT_EQ(verdict.kind, EventKind::Verdict);
  JsonValue counters = parse_json(verdict.stats_json);
  ASSERT_TRUE(counters.is_object());

  auto field = [&](const char* key) -> std::uint64_t {
    const JsonValue* v = counters.find(key);
    EXPECT_NE(v, nullptr) << key;
    return v == nullptr ? 0 : static_cast<std::uint64_t>(v->integer);
  };
  EXPECT_EQ(field("te"), rec.result.stats.transitions_executed);
  EXPECT_EQ(field("ge"), rec.result.stats.generates);
  EXPECT_EQ(field("re"), rec.result.stats.restores);
  EXPECT_EQ(field("sa"), rec.result.stats.saves);
  // Timing never appears in events: streams must be deterministic.
  EXPECT_EQ(counters.find("cpu_seconds"), nullptr);
  EXPECT_EQ(verdict.stats_json.find("phase"), std::string::npos);
}

TEST(EventStream, JsonlSinkRingFlushesEverything) {
  est::Spec spec = est::compile_spec(specs::ack());
  const std::string path =
      testing_support::private_temp_path("obs_ring_test_stream", ".jsonl");
  core::DfsResult direct;
  std::uint64_t written = 0;
  {
    // Tiny ring so the run forces several mid-stream flushes.
    JsonlSink sink(path, /*ring_capacity=*/4);
    sink.set_refs("builtin:ack", "");
    core::Options options = core::Options::none();
    options.sink = &sink;
    direct = core::analyze_text(spec, kAckTrace, options);
    sink.flush();
    written = sink.events_written();
  }  // destructor drains the tail
  ASSERT_EQ(direct.verdict, core::Verdict::Valid);

  ReadResult back = read_events_file(path);
  EXPECT_TRUE(back.errors.empty());
  EXPECT_GE(back.events.size(), written);
  ASSERT_FALSE(back.events.empty());
  EXPECT_EQ(back.events.front().kind, EventKind::Run);
  EXPECT_EQ(back.events.back().kind, EventKind::Verdict);

  // The file stream and an in-memory recording of the same deterministic
  // run are identical (canonical compare: the file round trip re-sorts
  // the nested stats object's keys).
  Recording memory = record_ack_run();
  ASSERT_EQ(back.events.size(), memory.events.size());
  for (std::size_t i = 0; i < back.events.size(); ++i) {
    EXPECT_EQ(canonical(parse_json(to_jsonl(back.events[i]))),
              canonical(parse_json(to_jsonl(memory.events[i]))))
        << "event " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tango::obs
