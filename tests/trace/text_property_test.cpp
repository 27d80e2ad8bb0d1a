// Property tests for the trace-text reader. Simulated traces of every
// built-in specification are rendered with tr::to_text, then rewritten in
// ways the trace language allows — other spacing between tokens, other
// letter case, `{...}` and `(*...*)` comments between tokens, `#` comment
// and blank lines — and must read back as the same events on the same
// lines. A seeded byte-mutation sweep then checks that arbitrary damage to
// such a text is either read or rejected with a CompileError.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "runtime/value.hpp"
#include "sim/simulator.hpp"
#include "specs/builtin_specs.hpp"
#include "support/diagnostics.hpp"
#include "trace/trace_io.hpp"

namespace tango::tr {
namespace {

Trace simulated_trace(const est::Spec& spec, std::uint32_t seed) {
  std::mt19937 rng(seed);
  sim::SimOptions options;
  options.seed = seed;
  options.max_steps = 120;
  return sim::simulate(spec, fuzz::synthesize_feeds(spec, rng), options)
      .trace;
}

std::size_t pick(std::mt19937& rng, std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// The tokens of one rendered event line: words, quoted characters (kept
/// whole, `''` included) and single punctuation characters.
std::vector<std::string> tokens_of(std::string_view line) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < line.size();) {
    std::size_t end = i + 1;
    if (line[i] == ' ') {
      ++i;
      continue;
    }
    if (line[i] == '\'') {
      while (line[end] != '\'' ||
             (end + 1 < line.size() && line[end + 1] == '\'')) {
        end += line[end] == '\'' ? 2 : 1;
      }
      ++end;
    } else if (is_word(line[i])) {
      while (end < line.size() && is_word(line[end])) ++end;
    }
    out.emplace_back(line.substr(i, end - i));
    i = end;
  }
  return out;
}

/// Random separator text; never empty between two words, which would
/// merge them.
std::string gap(std::mt19937& rng, bool must_separate) {
  static const char* const kGaps[] = {
      "",     " ",         "\t",    "   ",  "{c}",  "(*c*)",
      "{ }",  " (* x *) ", "(**)",  "{}",   " \t ", "{ in u.send(1) }",
  };
  for (;;) {
    const std::string g = kGaps[pick(rng, std::size(kGaps))];
    if (!g.empty() || !must_separate) return g;
  }
}

std::string random_case(std::string word, std::mt19937& rng) {
  for (char& c : word) {
    if (pick(rng, 2) == 0) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  return word;
}

/// `line` with random spacing, comments and letter case between and in
/// its tokens; quoted characters are left as they are.
std::string perturb_line(std::string_view line, std::mt19937& rng) {
  std::string out = gap(rng, false);
  bool prev_word = false;
  for (const std::string& tok : tokens_of(line)) {
    const bool word = is_word(tok.front());
    out += gap(rng, prev_word && word);
    out += word ? random_case(tok, rng) : tok;
    prev_word = word;
  }
  return out + gap(rng, false);
}

/// `text` perturbed line by line, with `#` comment and blank lines mixed
/// in; `lines` receives the new line number of each event, in order.
std::string perturb(std::string_view text, std::mt19937& rng,
                    std::vector<std::uint32_t>& lines) {
  static const char* const kFillers[] = {"# comment", "   # in u.x(",
                                         "", " \t ", "#"};
  std::string out;
  std::uint32_t line_no = 0;
  for (std::size_t nl; (nl = text.find('\n')) != std::string_view::npos;
       text.remove_prefix(nl + 1)) {
    while (pick(rng, 4) == 0) {
      out += kFillers[pick(rng, std::size(kFillers))];
      out += '\n';
      ++line_no;
    }
    const std::string_view line = text.substr(0, nl);
    ++line_no;
    if (line == "eof") {
      out += " " + random_case("eof", rng) + "\t\n";
      continue;
    }
    out += perturb_line(line, rng) + "\n";
    lines.push_back(line_no);
  }
  return out;
}

TEST(TraceTextProperty, PerturbedTextReadsTheSameEvents) {
  int events = 0;
  for (const auto& [name, source] : specs::all_builtin_specs()) {
    const est::Spec spec = est::compile_spec(source);
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      Trace trace = simulated_trace(spec, seed);
      if (seed % 2 == 0) trace.mark_eof();
      std::mt19937 rng(seed * 7919 +
                       static_cast<std::uint32_t>(name.size()));
      std::vector<std::uint32_t> lines;
      const std::string text = perturb(to_text(spec, trace), rng, lines);
      Trace got(0);
      ASSERT_NO_THROW(got = parse_trace(spec, text, /*assume_eof=*/false))
          << text;
      EXPECT_EQ(got.eof(), trace.eof());
      ASSERT_EQ(got.events().size(), trace.events().size()) << text;
      for (std::size_t i = 0; i < trace.events().size(); ++i) {
        const TraceEvent& a = trace.events()[i];
        const TraceEvent& b = got.events()[i];
        EXPECT_EQ(b.dir, a.dir) << i;
        EXPECT_EQ(b.ip, a.ip) << i;
        EXPECT_EQ(b.interaction, a.interaction) << i;
        EXPECT_EQ(b.seq, a.seq) << i;
        EXPECT_EQ(b.loc.line, lines[i]) << i;
        ASSERT_EQ(b.params.size(), a.params.size()) << i;
        for (std::size_t k = 0; k < a.params.size(); ++k) {
          EXPECT_TRUE(rt::equals(b.params[k], a.params[k], false))
              << i << ": " << b.params[k].to_string() << " vs "
              << a.params[k].to_string();
        }
        ++events;
      }
    }
  }
  EXPECT_GT(events, 200);  // the sweep really exercised the reader
}

TEST(TraceTextProperty, ByteMutationsParseOrThrow) {
  static const char kBytes[] = "(){}[]*'-_,.#\n \t0a9Z;:<>=@\x80\xff";
  int rejected = 0;
  int read = 0;
  for (const auto& [name, source] : specs::all_builtin_specs()) {
    const est::Spec spec = est::compile_spec(source);
    const std::string base = to_text(spec, simulated_trace(spec, 3));
    if (base.empty()) continue;
    std::mt19937 rng(static_cast<std::uint32_t>(base.size()));
    for (int round = 0; round < 300; ++round) {
      std::string text = base;
      for (std::size_t edits = 1 + pick(rng, 3); edits > 0; --edits) {
        const std::size_t at = pick(rng, text.size() + 1);
        const char byte = pick(rng, 3) == 0
                              ? static_cast<char>(pick(rng, 256))
                              : kBytes[pick(rng, sizeof kBytes - 1)];
        switch (pick(rng, 4)) {
          case 0: if (at < text.size()) text[at] = byte; break;
          case 1: text.insert(at, 1, byte); break;
          case 2: if (at < text.size()) text.erase(at, 1); break;
          default: text.resize(at); break;
        }
      }
      // An exact-size copy, so a read past the end is out of bounds.
      const auto bytes = std::make_unique<char[]>(text.size());
      text.copy(bytes.get(), text.size());
      try {
        (void)parse_trace(spec, std::string_view(bytes.get(), text.size()));
        ++read;
      } catch (const CompileError&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(read, 0);
}

}  // namespace
}  // namespace tango::tr
