// C++ generator tests: the emitted translation unit, read as text. (The
// units are also compiled and run as part of the build: see
// examples/CMakeLists.txt, targets abp_tam .. lapd_tam and the
// generated_*_tam ctest entries, which diff them against `tango analyze`.)
#include "codegen/cpp_generator.hpp"

#include <gtest/gtest.h>

#include <string>

#include "specs/builtin_specs.hpp"

namespace tango::codegen {
namespace {

/// The contents of the raw string literal that follows `name = ` in
/// `code`, as the compiler reads them; "" when there is none.
std::string embedded(const std::string& code, const std::string& name) {
  const std::string head = name + " = R\"";
  const std::size_t at = code.find(head);
  if (at == std::string::npos) return "";
  const std::size_t open = code.find('(', at);
  const std::string delim = code.substr(at + head.size(),
                                        open - at - head.size());
  const std::size_t close = code.find(")" + delim + "\"", open + 1);
  if (close == std::string::npos) return "";
  return code.substr(open + 1, close - open - 1);
}

TEST(CppGenerator, EmitsMainThatRunsTheCoreEngines) {
  const std::string code = generate_cpp("builtin:ack", specs::ack());
  EXPECT_NE(code.find("#include \"cli/cli.hpp\""), std::string::npos);
  EXPECT_NE(code.find("int main(int argc, char** argv)"), std::string::npos);
  EXPECT_NE(code.find("tango::cli::analyzer_main(kSpecRef, kSpecText, argc, "
                      "argv)"),
            std::string::npos)
      << code;
  EXPECT_EQ(embedded(code, "kSpecRef"), "builtin:ack");
}

TEST(CppGenerator, EmbedsEveryBuiltinByteForByte) {
  for (const auto& [name, text] : specs::all_builtin_specs()) {
    const std::string code = generate_cpp("builtin:" + std::string(name), text);
    EXPECT_EQ(embedded(code, "kSpecText"), text) << name;
  }
}

// A text holding the literal's closing sequence gets a longer delimiter
// instead of ending the literal early; so does a ref.
TEST(CppGenerator, DelimiterInTheTextIsEmbeddedSafely) {
  const std::string text =
      "specification s; { )tango_spec\" and )tango_spec0\" } end.\r\n";
  const std::string ref = "odd)tango_spec\"name.est";
  const std::string code = generate_cpp(ref, text);
  EXPECT_EQ(embedded(code, "kSpecText"), text);
  EXPECT_NE(code.find("kSpecText = R\"tango_spec1("), std::string::npos)
      << code;
  EXPECT_EQ(embedded(code, "kSpecRef"), ref);
  EXPECT_NE(code.find("kSpecRef = R\"tango_spec0("), std::string::npos);
}

}  // namespace
}  // namespace tango::codegen
