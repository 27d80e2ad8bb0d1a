// Wire-protocol framing (src/server/framing.hpp): serialize/parse round
// trips for every frame type, the incremental decoder over arbitrary byte
// splits, and the garbage negatives — zero/oversized length prefixes,
// malformed JSON, unknown types and missing required members must all be
// FramingError, never a crash or a silent mis-parse.
#include "server/framing.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/option_table.hpp"
#include "obs/json.hpp"

namespace tango::srv {
namespace {

Frame round_trip(const Frame& f) { return parse_frame(serialize(f)); }

TEST(Framing, HelloRoundTripCarriesEveryOption) {
  // Each option member's own encoding is the option table's, pinned per
  // row in tests/core/option_table_test.cpp; the frame carries them all.
  core::Options o = core::Options::full();
  o.initial_state_search = true;
  o.partial = true;
  o.disabled_ips = {"u"};
  o.unobservable_ips = {"n"};
  o.hash_states = true;
  o.max_transitions = 123'456;
  o.deadline_ms = 9'000;
  o.max_memory = 1'000'000;
  o.max_depth = 77;
  o.jobs = 4;
  Frame f;
  f.type = FrameType::Hello;
  f.spec = "builtin:abp";
  f.mode = "static";
  f.version = "0.10.0";
  f.options_json = core::write_options(o, core::kHello);
  const Frame g = round_trip(f);
  EXPECT_EQ(g.type, FrameType::Hello);
  EXPECT_EQ(g.spec, "builtin:abp");
  EXPECT_EQ(g.mode, "static");
  EXPECT_EQ(g.version, "0.10.0");
  EXPECT_EQ(g.options_json, f.options_json);
  for (const core::OptionRow& row : core::option_rows()) {
    if ((row.surfaces & core::kHello) == 0) continue;
    EXPECT_NE(g.options_json.find("\"" + std::string(row.key) + "\":"),
              std::string::npos)
        << row.key;
  }
}

TEST(Framing, HelloDefaultsApplyWhenMembersAreOmitted) {
  const Frame g = parse_frame(R"({"type":"hello","spec":"builtin:ack"})");
  EXPECT_EQ(g.spec, "builtin:ack");
  EXPECT_EQ(g.mode, "online");
  EXPECT_EQ(g.options_json, "{}");
  // Absent option members leave the server's defaults untouched.
  core::Options server = core::Options::full();
  server.hash_states = true;
  server.jobs = 4;
  core::Options session = server;
  core::read_options(obs::parse_json(g.options_json), core::kHello, session);
  EXPECT_EQ(core::write_options(session, core::kHeader),
            core::write_options(server, core::kHeader));
}

TEST(Framing, HelloOverlaysOnlyHelloOptions) {
  const Frame g = parse_frame(
      R"({"type":"hello","spec":"a","order":"nr","jobs":2,"visited_max":9,)"
      R"("colour":"blue"})");
  core::Options session;
  session.jobs = 4;
  core::read_options(obs::parse_json(g.options_json), core::kHello, session);
  EXPECT_EQ(core::order_name(session), "none");
  EXPECT_EQ(session.jobs, 2);
  EXPECT_EQ(session.visited_max, 0u);  // not a hello row
}

TEST(Framing, ChunkRoundTripPreservesArbitraryText) {
  Frame f;
  f.type = FrameType::Chunk;
  f.text = "in u.send(0)\nout n.dt(0, \"x\\\"y\")\n\teof \x01 tail";
  const Frame g = round_trip(f);
  EXPECT_EQ(g.type, FrameType::Chunk);
  EXPECT_EQ(g.text, f.text);
}

TEST(Framing, EofAndCancelRoundTrip) {
  Frame eof;
  eof.type = FrameType::Eof;
  EXPECT_EQ(round_trip(eof).type, FrameType::Eof);
  Frame cancel;
  cancel.type = FrameType::Cancel;
  EXPECT_EQ(round_trip(cancel).type, FrameType::Cancel);
}

TEST(Framing, AcceptedRoundTripCarriesVersionInfo) {
  Frame f;
  f.type = FrameType::Accepted;
  f.version = "0.10.0";
  f.protocol = kProtocolVersion;
  f.schema = 2;
  f.session = 41;
  const Frame g = round_trip(f);
  EXPECT_EQ(g.type, FrameType::Accepted);
  EXPECT_EQ(g.version, "0.10.0");
  EXPECT_EQ(g.protocol, kProtocolVersion);
  EXPECT_EQ(g.schema, 2u);
  EXPECT_EQ(g.session, 41u);
}

TEST(Framing, VerdictRoundTripInterimAndFinal) {
  Frame interim;
  interim.type = FrameType::Verdict;
  interim.status = "valid so far";
  interim.final_verdict = false;
  Frame g = round_trip(interim);
  EXPECT_EQ(g.status, "valid so far");
  EXPECT_FALSE(g.final_verdict);

  Frame fin;
  fin.type = FrameType::Verdict;
  fin.status = "inconclusive";
  fin.final_verdict = true;
  fin.reason = "shutdown";
  g = round_trip(fin);
  EXPECT_EQ(g.status, "inconclusive");
  EXPECT_TRUE(g.final_verdict);
  EXPECT_EQ(g.reason, "shutdown");
}

TEST(Framing, StatsRoundTripEmbedsTheObject) {
  Frame f;
  f.type = FrameType::Stats;
  f.stats_json = R"({"te":12,"ge":3})";
  const Frame g = round_trip(f);
  EXPECT_EQ(g.type, FrameType::Stats);
  EXPECT_NE(g.stats_json.find("\"te\""), std::string::npos);
}

TEST(Framing, ErrorAndOverloadedRoundTripTheirMessage) {
  Frame f;
  f.type = FrameType::Error;
  f.message = "unknown spec 'x'";
  EXPECT_EQ(round_trip(f).message, "unknown spec 'x'");
  f.type = FrameType::Overloaded;
  f.message = "session queue full; retry later";
  const Frame g = round_trip(f);
  EXPECT_EQ(g.type, FrameType::Overloaded);
  EXPECT_EQ(g.message, "session queue full; retry later");
}

// --- negatives ------------------------------------------------------------

TEST(Framing, MalformedJsonIsAFramingError) {
  EXPECT_THROW((void)parse_frame("not json at all"), FramingError);
  EXPECT_THROW((void)parse_frame("{\"type\":"), FramingError);
  EXPECT_THROW((void)parse_frame(""), FramingError);
}

TEST(Framing, UnknownTypeIsAFramingError) {
  EXPECT_THROW((void)parse_frame(R"({"type":"warp-core-breach"})"),
               FramingError);
  EXPECT_THROW((void)parse_frame(R"({"spec":"builtin:abp"})"), FramingError);
}

TEST(Framing, MissingRequiredMembersAreFramingErrors) {
  // hello without spec, chunk without text, verdict without status/final.
  EXPECT_THROW((void)parse_frame(R"({"type":"hello"})"), FramingError);
  EXPECT_THROW((void)parse_frame(R"({"type":"chunk"})"), FramingError);
  EXPECT_THROW((void)parse_frame(R"({"type":"verdict"})"), FramingError);
  EXPECT_THROW((void)parse_frame(R"({"type":"verdict","status":"valid"})"),
               FramingError);
  EXPECT_THROW((void)parse_frame(R"({"type":"stats"})"), FramingError);
}

TEST(Framing, IllTypedMembersAreFramingErrors) {
  EXPECT_THROW((void)parse_frame(R"({"type":"hello","spec":7})"),
               FramingError);
  EXPECT_THROW((void)parse_frame(R"({"type":"hello","spec":"a","jobs":"x"})"),
               FramingError);
  EXPECT_THROW(
      (void)parse_frame(R"({"type":"hello","spec":"a","mode":"psychic"})"),
      FramingError);
  EXPECT_THROW(
      (void)parse_frame(R"({"type":"hello","spec":"a","order":"sideways"})"),
      FramingError);
  EXPECT_THROW(
      (void)parse_frame(R"({"type":"hello","spec":"a","max_depth":-1})"),
      FramingError);
  EXPECT_THROW(
      (void)parse_frame(R"({"type":"hello","spec":"a","disabled_ips":[1]})"),
      FramingError);
}

TEST(FramingDecoder, ReassemblesFramesFromSingleByteFeeds) {
  Frame f;
  f.type = FrameType::Chunk;
  f.text = "in u.send(0)\n";
  const std::string wire = encode_frame(f) + encode_frame(f);
  FrameDecoder d;
  std::string payload;
  int got = 0;
  for (char byte : wire) {
    d.feed(&byte, 1);
    while (d.next(payload)) {
      ++got;
      EXPECT_EQ(parse_frame(payload).text, f.text);
    }
  }
  EXPECT_EQ(got, 2);
  EXPECT_EQ(d.pending(), 0u);
}

TEST(FramingDecoder, PartialFrameStaysPendingUntilComplete) {
  Frame f;
  f.type = FrameType::Eof;
  const std::string wire = encode_frame(f);
  FrameDecoder d;
  std::string payload;
  d.feed(wire.data(), wire.size() - 1);
  EXPECT_FALSE(d.next(payload));
  EXPECT_GT(d.pending(), 0u);
  d.feed(wire.data() + wire.size() - 1, 1);
  EXPECT_TRUE(d.next(payload));
  EXPECT_EQ(parse_frame(payload).type, FrameType::Eof);
}

TEST(FramingDecoder, ZeroLengthPrefixIsAFramingError) {
  FrameDecoder d;
  d.feed("\x00\x00\x00\x00", 4);
  std::string payload;
  EXPECT_THROW((void)d.next(payload), FramingError);
}

TEST(FramingDecoder, OversizedLengthPrefixIsAFramingError) {
  FrameDecoder d;
  d.feed("\x7f\xff\xff\xff", 4);  // ~2 GiB claimed: reject before allocating
  std::string payload;
  EXPECT_THROW((void)d.next(payload), FramingError);
}

}  // namespace
}  // namespace tango::srv
