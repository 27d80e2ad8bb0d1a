// Robustness sweeps: malformed input must produce a CompileError with a
// location — never a crash, hang or silent acceptance. The sweeps mutate
// the built-in specifications deterministically (truncations, token
// deletions, character swaps) and feed garbage to the trace parser.
#include <gtest/gtest.h>

#include "estelle/spec.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango::est {
namespace {

/// Compiling arbitrary text must either succeed or throw CompileError.
void must_not_crash(std::string_view text) {
  try {
    DiagnosticSink sink;
    (void)compile_spec(text, sink);
  } catch (const CompileError&) {
    // expected for malformed input
  }
}

// The spec name is a string_view so gtest prints its text, not a pointer
// address that changes from run to run, in the registered test names.
class TruncationSweep
    : public ::testing::TestWithParam<std::pair<std::string_view, int>> {};

TEST_P(TruncationSweep, PrefixesNeverCrashTheFrontend) {
  const auto& [name, step] = GetParam();
  const std::string_view text = specs::builtin_spec(name);
  for (std::size_t len = 0; len <= text.size();
       len += static_cast<std::size_t>(step)) {
    must_not_crash(text.substr(0, len));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, TruncationSweep,
    ::testing::Values(TruncationSweep::ParamType{"ack", 7},
                      TruncationSweep::ParamType{"ip3", 11},
                      TruncationSweep::ParamType{"abp", 13},
                      TruncationSweep::ParamType{"inres", 17},
                      TruncationSweep::ParamType{"tp0", 23},
                      TruncationSweep::ParamType{"lapd", 41}),
    [](const auto& info) { return std::string(info.param.first); });

TEST(Robustness, CharacterCorruptionSweep) {
  const std::string base(specs::abp());
  const char replacements[] = {';', '(', '}', '\'', '9', '.', ','};
  for (std::size_t pos = 0; pos < base.size(); pos += 29) {
    for (char c : replacements) {
      std::string mutated = base;
      mutated[pos] = c;
      must_not_crash(mutated);
    }
  }
}

TEST(Robustness, TokenDeletionSweep) {
  const std::string base(specs::ack());
  // Delete 8-character windows across the text.
  for (std::size_t pos = 0; pos + 8 < base.size(); pos += 13) {
    std::string mutated = base.substr(0, pos) + base.substr(pos + 8);
    must_not_crash(mutated);
  }
}

TEST(Robustness, PathologicalInputs) {
  must_not_crash("");
  must_not_crash(";;;;");
  must_not_crash(std::string(10000, '('));
  must_not_crash("specification " + std::string(500, 'x') + ";");
  must_not_crash("{ unterminated comment");
  must_not_crash("specification s; end.");
  std::string deep = "specification s;\nchannel CH(A, B); by A: m;\n"
                     "module M systemprocess; ip P: CH(B); end;\n"
                     "body MB for M;\nvar x: integer;\nstate z;\n"
                     "initialize to z begin x := ";
  deep += std::string(2000, '(') + "1" + std::string(2000, ')');
  deep += "; end;\nend;\nend.\n";
  must_not_crash(deep);  // deep expression nesting: throw or succeed, no UB
}

TEST(Robustness, TraceParserGarbage) {
  est::Spec spec = compile_spec(specs::abp());
  for (const char* line :
       {"in", "out", "in u", "in u.", "in u.send", "in u.send(",
        "in u.send(1", "in u.send(1,", "in u.send(1))", "banana",
        "in u.send(true)", "out m.frame(1)",
        "in u.send(--3)", "in u.send(1) in u.send(2)"}) {
    EXPECT_THROW((void)tr::parse_trace(spec, line), CompileError) << line;
  }
}

TEST(Robustness, TraceTruncationSweep) {
  est::Spec spec = compile_spec(specs::abp());
  const std::string trace =
      "in  u.send(5)\nout m.frame(0, 5)\nin  m.ack(0)\nout u.confirm\n";
  for (std::size_t len = 0; len <= trace.size(); ++len) {
    try {
      (void)tr::parse_trace(spec, trace.substr(0, len));
    } catch (const CompileError&) {
    }
  }
}

}  // namespace
}  // namespace tango::est
