// The shared JSON string escaper (obs/json.hpp): valid UTF-8 passes
// through byte-for-byte, every non-UTF-8 byte (stray continuation bytes,
// overlong encodings, surrogates, out-of-range code points) is \u00XX-
// escaped, and whatever the writer produces both reparses to the original
// string and survives the stream validator's UTF-8 gate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/stream.hpp"
#include "obs/sink.hpp"

namespace tango::obs {
namespace {

std::string escape(std::string_view s) {
  std::string out;
  escape_json_into(out, s);
  return out;
}

/// Writer → parser round trip: the escaped form must decode back to the
/// exact input bytes.
std::string round_trip(const std::string& s) {
  const JsonValue v = parse_json("{\"k\":" + escape(s) + "}");
  const JsonValue* f = v.find("k");
  EXPECT_NE(f, nullptr);
  return f != nullptr ? f->string : std::string();
}

TEST(JsonEscape, AsciiAndControlCharacters) {
  EXPECT_EQ(escape("plain"), "\"plain\"");
  EXPECT_EQ(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(escape("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
  EXPECT_EQ(escape(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
}

TEST(JsonEscape, ValidUtf8PassesThroughRaw) {
  const std::vector<std::string> samples = {
      "caf\xc3\xa9",              // U+00E9, 2-byte
      "\xe2\x82\xac",             // U+20AC euro, 3-byte
      "\xf0\x9f\x9a\x80",         // U+1F680 rocket, 4-byte
      "mixed \xc3\xa9 ascii",
  };
  for (const std::string& s : samples) {
    EXPECT_EQ(escape(s), "\"" + s + "\"") << s;
    EXPECT_TRUE(is_valid_utf8(s)) << s;
  }
}

TEST(JsonEscape, InvalidBytesAreEscapedNotPassedRaw) {
  // Each case: (input, escaped form). A raw pass-through of any of these
  // would make the emitted JSONL line invalid UTF-8.
  struct Case { std::string in, want; };
  const std::vector<Case> cases = {
      {std::string("\xff", 1), "\"\\u00ff\""},           // not a lead byte
      {std::string("\x80", 1), "\"\\u0080\""},           // lone continuation
      {std::string("\xc3", 1), "\"\\u00c3\""},           // truncated 2-byte
      {std::string("\xc0\xaf", 2), "\"\\u00c0\\u00af\""},  // overlong '/'
      {std::string("\xed\xa0\x80", 3),
       "\"\\u00ed\\u00a0\\u0080\""},                     // surrogate D800
      {std::string("\xf4\x90\x80\x80", 4),
       "\"\\u00f4\\u0090\\u0080\\u0080\""},              // > U+10FFFF
  };
  for (const Case& c : cases) {
    EXPECT_EQ(escape(c.in), c.want);
    EXPECT_FALSE(is_valid_utf8(c.in));
    EXPECT_TRUE(is_valid_utf8(escape(c.in)));
  }
}

TEST(JsonEscape, ValidUtf8RoundTripsByteExactly) {
  const std::vector<std::string> samples = {
      "",
      "plain",
      "caf\xc3\xa9 \xf0\x9f\x9a\x80",
      std::string("\x00nul inside", 11),
      "tabs\tand\nnewlines\r",
  };
  for (const std::string& s : samples) {
    EXPECT_EQ(round_trip(s), s);
    EXPECT_TRUE(is_valid_utf8(escape(s)));
  }
}

TEST(JsonEscape, InvalidBytesRoundTripAsTheirCodePoints) {
  // The documented lossy-but-deterministic mapping: an invalid byte 0xXX
  // is escaped as \u00XX, which reparses as the UTF-8 encoding of U+00XX.
  // The emitted line is always valid UTF-8 and always reparses cleanly —
  // for every possible byte value.
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  const std::string escaped = escape(all);
  EXPECT_TRUE(is_valid_utf8(escaped));
  const std::string decoded = round_trip(all);
  EXPECT_TRUE(is_valid_utf8(decoded));
  // ASCII prefix survives exactly.
  EXPECT_EQ(decoded.substr(0, 128), all.substr(0, 128));
  // Bytes >= 0x80 (all invalid as standalone UTF-8) come back as U+0080..
  // U+00FF, two bytes each.
  EXPECT_EQ(decoded.size(), 128u + 2u * 128u);
  std::size_t pos = 128;
  for (int b = 0x80; b < 256; ++b) {
    const auto want0 = static_cast<char>(0xC0 | (b >> 6));
    const auto want1 = static_cast<char>(0x80 | (b & 0x3F));
    ASSERT_LT(pos + 1, decoded.size());
    EXPECT_EQ(decoded[pos], want0) << "byte " << b;
    EXPECT_EQ(decoded[pos + 1], want1) << "byte " << b;
    pos += 2;
  }
}

TEST(JsonEscape, EventWithNonUtf8SpecNameValidates) {
  // End to end: an event whose string field carries raw bytes still
  // serializes to a line the schema checker accepts (satellite: the old
  // escaper passed >= 0x80 through raw and produced invalid JSONL).
  Event e;
  e.kind = EventKind::Run;
  e.version = kEventSchemaVersion;
  e.engine = "dfs";
  e.spec = std::string("sp\xffms \x80spec", 11);
  e.spec_ref = "builtin:abp";
  e.trace_ref = "t.tr";
  e.order = "nr";
  e.flags = "{}";
  const std::string line = to_jsonl(e);
  EXPECT_TRUE(is_valid_utf8(line));
  const std::vector<ReadError> errors = read_events(line + "\n").errors;
  EXPECT_TRUE(errors.empty())
      << (errors.empty() ? "" : errors.front().message);
}

}  // namespace
}  // namespace tango::obs
