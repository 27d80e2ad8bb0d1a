// Lexer for the Estelle dialect: the one home of its lexical rules, used for
// specification texts and trace lines alike. Comments are Pascal-style:
// { ... } and (* ... *), non-nesting, and may span lines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "estelle/token.hpp"

namespace tango::est {

/// Pull-style tokenizer: next() scans one token, which stays a view into
/// the source — no token vector, no copies. Every word comes back as
/// Tok::Ident; classify_ident tells the keywords. Throws CompileError on
/// malformed input (unterminated comment or string, stray character,
/// integer overflow), its message prefixed with `context`.
class Scanner {
 public:
  /// `first_line` is the line number of the source's first line.
  explicit Scanner(std::string_view source, std::uint32_t first_line = 1,
                   std::string_view context = {})
      : src_(source), line_(first_line), context_(context) {}

  /// Scans the next token, after blanks and comments; returns its kind.
  Tok next();

  [[nodiscard]] Tok kind() const { return kind_; }
  /// The token as written (a string literal with its quotes).
  [[nodiscard]] std::string_view text() const {
    return src_.substr(start_, pos_ - start_);
  }
  /// Tok::IntLit: its value.
  [[nodiscard]] std::int64_t int_value() const { return int_; }
  /// Tok::StringLit: its characters, a doubled quote read as one.
  [[nodiscard]] std::string string_value() const;
  /// Where the token starts.
  [[nodiscard]] SourceLoc loc() const { return loc_at(start_); }

 private:
  [[nodiscard]] char at(std::size_t i) const {
    return i < src_.size() ? src_[i] : '\0';
  }
  [[nodiscard]] SourceLoc loc_at(std::size_t i) const {
    return {line_, static_cast<std::uint32_t>(i - line_start_ + 1)};
  }
  /// Moves pos_ to `end`, counting the lines it passes.
  void skip_to(std::size_t end);
  [[noreturn]] void fail(std::size_t where, const std::string& msg) const;

  std::string_view src_;
  std::uint32_t line_;
  std::size_t line_start_ = 0;  // offset of line_'s first character
  std::string_view context_;
  std::size_t start_ = 0;  // the current token spans [start_, pos_)
  std::size_t pos_ = 0;
  Tok kind_ = Tok::End;
  std::int64_t int_ = 0;
};

/// Tokenizes all of `source`, keywords classified, ending with Tok::End.
[[nodiscard]] std::vector<Token> lex(std::string_view source);

}  // namespace tango::est
