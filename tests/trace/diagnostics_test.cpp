// Pinned trace diagnostics: every text below is read by parse_trace and
// its outcome — the events it reads back as text, or the CompileError's
// message with its line and column — is one row of
// tests/trace/golden/diagnostics.tsv. The rows cover the garbage corpus
// of Robustness.TraceParserGarbage, each lexical rule of the trace
// language (comments, case, spacing, signs, quotes, `_`) and each typed
// value error, so a change to what the trace reader accepts or how it
// reports an error shows up as a reviewed golden diff. Regenerate with:
//   TANGO_UPDATE_GOLDENS=1 ctest -R TraceDiagnostics
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "specs/builtin_specs.hpp"
#include "support/diagnostics.hpp"
#include "trace/trace_io.hpp"

namespace tango::tr {
namespace {

// One parameter of each kind a trace value can take, nested ones included.
constexpr std::string_view kTypedSpec = R"(
specification typed;
channel CH(A, B);
  by A: m; d(v: integer; flag: boolean); c(ch: char);
  by B: r(v: integer); rec(p: Pt); arr(xs: Vec); col(c: Color);
        nest(s: Seg);
module M systemprocess; ip P: CH(B); end;
body MB for M;
  type Pt = record x, y: integer; end;
       Vec = array [1 .. 2] of integer;
       Color = (red, green, blue);
       Seg = record a: Pt; b: array [0 .. 1] of Pt; c: Vec; end;
  state z;
  initialize to z begin end;
end;
end.
)";

struct Case {
  const char* spec;  // "abp" or "typed"
  const char* text;
};

const Case kCases[] = {
    // Robustness.TraceParserGarbage.
    {"abp", "in"},
    {"abp", "out"},
    {"abp", "in u"},
    {"abp", "in u."},
    {"abp", "in u.send"},
    {"abp", "in u.send("},
    {"abp", "in u.send(1"},
    {"abp", "in u.send(1,"},
    {"abp", "in u.send(1))"},
    {"abp", "banana"},
    {"abp", "in u.send(true)"},
    {"abp", "out m.frame(1)"},
    {"abp", "in u.send(--3)"},
    {"abp", "in u.send(1) in u.send(2)"},
    // Keywords where a name belongs.
    {"abp", "in u.end"},
    {"abp", "in end.send(1)"},
    {"abp", "end u.send(1)"},
    {"typed", "out p.col(begin)"},
    {"typed", "in p.d(1, nil)"},
    // Names that are not in the spec.
    {"abp", "in X.send(1)"},
    {"abp", "   in X.send(1)"},
    {"abp", "in u.confirm"},
    {"abp", "out u.send(1)"},
    {"abp", "in u.nosuch(1)"},
    {"abp", "inn u.send(1)"},
    // Integers and signs.
    {"abp", "in u.send(99999999999999999999)"},
    {"abp", "in u.send(9223372036854775807)"},
    {"abp", "in u.send(-9223372036854775807)"},
    {"abp", "in u.send(-9223372036854775808)"},
    {"abp", "in u.send(- 3)"},
    {"abp", "in u.send(+3)"},
    {"abp", "in u.send('5')"},
    {"abp", "in u.send(_)"},
    {"abp", "in u.send(_x)"},
    {"abp", "in u.send(x_)"},
    // Comments, spacing and case.
    {"abp", "in u.send(1) { open"},
    {"abp", "in u.send(1 (* open"},
    {"abp", "in u.send(1) {done}"},
    {"abp", "in{a}u(*b*).{c}send(*d*)({e}1(*f*))(*g*)"},
    {"abp", "in  u . send ( 5 )"},
    {"abp", "in\tu\t.\tsend\t(\t5\t)"},
    {"abp", "IN U.SEND(5)"},
    {"abp", "Out M.Frame(0, 5)"},
    {"abp", "in u..send(1)"},
    {"abp", "in u.send(1);"},
    {"abp", "in u.send(1) @"},
    {"abp", "in X.send(1) @"},
    {"abp", "in u.send(1) \xc3\xa9"},
    // Lines, comments and eof.
    {"abp", "# comment\n\nin u.send(1)\n   \nout m.frame(0, 1)\n"},
    {"abp", "in u.send(1)\nin u.send(99999999999999999999)"},
    {"abp", "in u.send(1)\n   in X.send(2)"},
    {"abp", "in u.send(1)\neof\nin u.send(2)"},
    {"abp", "in u.send(1)\neof\n  in u.send(2)"},
    {"abp", "in u.send(1)\nEOF\n# after\n"},
    // Characters.
    {"typed", "in p.c('x')"},
    {"typed", "in p.c('''')"},
    {"typed", "in p.c('ab')"},
    {"typed", "in p.c('')"},
    {"typed", "in p.c('a)"},
    {"typed", "in p.c(x)"},
    {"typed", "in p.c(_)"},
    // Booleans and enumerations.
    {"typed", "in p.d(7, TRUE)"},
    {"typed", "in p.d(-7, False)"},
    {"typed", "in p.d(7, maybe)"},
    {"typed", "in p.d(7, 1)"},
    {"typed", "in p.d(7)"},
    {"typed", "in p.d(7, true, 8)"},
    {"typed", "in p.d"},
    {"typed", "in p.m"},
    {"typed", "in p.m()"},
    {"typed", "in p.m(1)"},
    {"typed", "out p.col(GREEN)"},
    {"typed", "out p.col(mauve)"},
    {"typed", "out p.col(_x)"},
    {"typed", "out p.col(1)"},
    // Records and arrays, nested ones included.
    {"typed", "out p.rec((1, 2))"},
    {"typed", "out p.rec((1 2))"},
    {"typed", "out p.rec(1, 2)"},
    {"typed", "out p.rec((1, 2, 3))"},
    {"typed", "out p.rec(_)"},
    {"typed", "out p.arr([1, 2])"},
    {"typed", "out p.arr([1])"},
    {"typed", "out p.arr([1, 2, 3])"},
    {"typed", "out p.arr((1, 2))"},
    {"typed", "out p.nest(((1, 2), [(3, 4), (5, 6)], [7, 8]))"},
    {"typed", "out p.nest( ( (1,2) ,[ (3 , _),_ ] , [ -7,8 ] ) )"},
    {"typed", "out p.nest(((1, 2), [(3, 4)], [7, 8]))"},
    {"typed", "out p.nest(((1, 2), [(3, 4), (5, 6)], [7, 8])) x"},
};

/// `text` on one line: backslash, tab, newline and non-printable bytes
/// escaped.
std::string escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (u < 0x20 || u >= 0x7f) {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// One row: spec, text, then `ok` and the events read back, or `error`
/// and the diagnostic.
std::string row(const est::Spec& spec, const Case& c) {
  std::string out = std::string(c.spec) + "\t" + escape(c.text) + "\t";
  try {
    return out + "ok\t" + escape(to_text(spec, parse_trace(spec, c.text)));
  } catch (const CompileError& e) {
    return out + "error\t" + escape(e.what());
  }
}

std::vector<std::string> record_table() {
  const est::Spec abp = est::compile_spec(specs::builtin_spec("abp"));
  const est::Spec typed = est::compile_spec(kTypedSpec);
  std::vector<std::string> rows;
  for (const Case& c : kCases) {
    rows.push_back(row(std::string_view(c.spec) == "abp" ? abp : typed, c));
  }
  return rows;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TraceDiagnostics, MatchGoldenTable) {
  const std::vector<std::string> got = record_table();
  const std::string path =
      std::string(TANGO_TRACE_GOLDEN_DIR) + "/diagnostics.tsv";
  if (std::getenv("TANGO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    for (const std::string& line : got) out << line << '\n';
    GTEST_SKIP() << "golden rewritten: " << path;
  }

  std::vector<std::string> want;
  std::istringstream is(read_file(path));
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) want.push_back(line);
  }
  ASSERT_FALSE(want.empty()) << "missing golden " << path
                             << " (set TANGO_UPDATE_GOLDENS=1 to create)";
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "row " << i;
  }
  EXPECT_EQ(got.size(), want.size());
}

}  // namespace
}  // namespace tango::tr
