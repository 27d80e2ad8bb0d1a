// Every surface that reads trace text — parse_trace (`tango analyze`),
// FileFollower (`tango online`), ChunkSource (`tango submit` via the
// server) and MemoryFeed — reads it through one tr::TraceReader, so the
// same text gives the same events, eof mark or error on each, whether it
// arrives whole or in pieces that split lines anywhere.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "specs/builtin_specs.hpp"
#include "support/diagnostics.hpp"
#include "trace/dynamic_source.hpp"
#include "trace/trace_io.hpp"
#include "../support/temp_path.hpp"

namespace tango::tr {
namespace {

std::string golden(const std::string& name) {
  std::ifstream file(std::string(TANGO_TRACES_DIR) + "/" + name,
                     std::ios::binary);
  EXPECT_TRUE(file.good()) << name;
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

/// What a surface made of the text: the trace as text, or the error.
std::string outcome(const est::Spec& spec,
                    const std::function<void(Trace&)>& read) {
  Trace trace(static_cast<int>(spec.ips.size()));
  try {
    read(trace);
  } catch (const CompileError& e) {
    return std::string("error: ") + e.what();
  }
  return to_text(spec, trace);
}

/// `text` cut into pieces of `size` bytes (the whole text for size 0).
std::vector<std::string> pieces(const std::string& text, std::size_t size) {
  if (size == 0) return {text};
  std::vector<std::string> out;
  for (std::size_t i = 0; i < text.size(); i += size) {
    out.push_back(text.substr(i, size));
  }
  return out;
}

/// Feeds `text` to every surface, whole and in pieces, and expects what
/// parse_trace makes of it. Returns that outcome.
std::string expect_same_everywhere(const std::string& spec_name,
                                   const std::string& text) {
  SCOPED_TRACE(spec_name);
  const est::Spec spec = est::compile_spec(specs::builtin_spec(spec_name));
  const std::string want = outcome(spec, [&](Trace& t) {
    t = parse_trace(spec, text, /*assume_eof=*/false);
  });

  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{7}, std::size_t{64}}) {
    SCOPED_TRACE("pieces of " + std::to_string(size) + " bytes");
    // The server: chunks as they come off the wire, then the eof frame.
    EXPECT_EQ(outcome(spec,
                      [&](Trace& t) {
                        ChunkSource source(spec);
                        for (const std::string& p : pieces(text, size)) {
                          source.push_chunk(p);
                          source.poll(t);
                        }
                        source.push_eof();
                        source.poll(t);
                      }),
              want);
    // `tango online`: a file that grows by each piece.
    const std::string path =
        testing_support::private_temp_path("tango_surfaces", ".tr");
    std::ofstream(path, std::ios::binary | std::ios::trunc).flush();
    EXPECT_EQ(outcome(spec,
                      [&](Trace& t) {
                        FileFollower follower(spec, path);
                        for (const std::string& p : pieces(text, size)) {
                          std::ofstream(path, std::ios::binary |
                                                  std::ios::app)
                              << p;
                          follower.poll(t);
                        }
                      }),
              want);
    std::remove(path.c_str());
  }
  // MemoryFeed takes whole lines: one poll per line.
  EXPECT_EQ(outcome(spec,
                    [&](Trace& t) {
                      MemoryFeed feed(spec);
                      std::istringstream lines(text);
                      for (std::string line; std::getline(lines, line);) {
                        feed.push_line(line);
                        feed.poll(t);
                      }
                    }),
            want);
  return want;
}

TEST(TraceSurfaces, GoldensReadTheSameEverywhere) {
  const std::pair<const char*, const char*> goldens[] = {
      {"abp", "abp_valid.tr"},   {"abp", "abp_invalid.tr"},
      {"ack", "ack_paper.tr"},   {"inres", "inres_valid.tr"},
      {"lapd", "lapd_midstream.tr"}, {"tp0", "tp0_valid.tr"},
  };
  for (const auto& [spec, file] : goldens) {
    SCOPED_TRACE(file);
    const std::string got = expect_same_everywhere(spec, golden(file));
    EXPECT_EQ(got.rfind("eof\n"), got.size() - 4) << got;
  }
}

TEST(TraceSurfaces, EventsAfterEofFailEverywhere) {
  // The first five events of abp_valid.tr (line 1 is a comment), `eof`,
  // then one more event on line 8.
  std::istringstream lines(golden("abp_valid.tr"));
  std::string text;
  std::string line;
  for (int i = 0; i < 6 && std::getline(lines, line); ++i) text += line + "\n";
  text += "eof\nout u.confirm\n";
  EXPECT_EQ(expect_same_everywhere("abp", text),
            "error: 8:1: trace: events after the eof marker");
}

TEST(TraceSurfaces, UnterminatedLastLineReadsTheSameEverywhere) {
  // abp_valid.tr without its final newline: the `eof` still counts.
  std::string text = golden("abp_valid.tr");
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  EXPECT_EQ(expect_same_everywhere("abp", text),
            expect_same_everywhere("abp", text + "\n"));
  // An event on an unterminated last line reads the same as a terminated
  // one wherever the end of the text is known.
  const est::Spec spec = est::compile_spec(specs::builtin_spec("abp"));
  const std::string event = "in  u.send(5)\nout m.frame(0, 5)";
  const std::string want = to_text(spec, parse_trace(spec, event + "\n"));
  for (const std::size_t size : {std::size_t{0}, std::size_t{5}}) {
    ChunkSource source(spec);
    Trace t(static_cast<int>(spec.ips.size()));
    for (const std::string& p : pieces(event, size)) {
      source.push_chunk(p);
      source.poll(t);
    }
    EXPECT_EQ(t.events().size(), 1u);  // the last line may still grow
    source.push_eof();
    source.poll(t);
    EXPECT_EQ(to_text(spec, t), want);
  }
  EXPECT_EQ(to_text(spec, parse_trace(spec, event)), want);
}

}  // namespace
}  // namespace tango::tr
