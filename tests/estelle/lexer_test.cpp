#include "estelle/lexer.hpp"

#include <gtest/gtest.h>

#include "support/diagnostics.hpp"

namespace tango::est {
namespace {

std::vector<Token> lex_ok(std::string_view src) {
  std::vector<Token> toks = lex(src);
  EXPECT_FALSE(toks.empty());
  EXPECT_EQ(toks.back().kind, Tok::End);
  return toks;
}

TEST(Lexer, EmptyInputYieldsEndToken) {
  auto toks = lex_ok("");
  EXPECT_EQ(toks.size(), 1u);
}

TEST(Lexer, KeywordsAreCaseInsensitive) {
  auto toks = lex_ok("BEGIN Begin begin");
  EXPECT_EQ(toks[0].kind, Tok::KwBegin);
  EXPECT_EQ(toks[1].kind, Tok::KwBegin);
  EXPECT_EQ(toks[2].kind, Tok::KwBegin);
}

TEST(Lexer, IdentifiersKeepSpelling) {
  auto toks = lex_ok("VsValue _tail x9");
  EXPECT_EQ(toks[0].kind, Tok::Ident);
  EXPECT_EQ(toks[0].text, "VsValue");
  EXPECT_EQ(toks[1].text, "_tail");
  EXPECT_EQ(toks[2].text, "x9");
}

TEST(Lexer, IntegerLiterals) {
  auto toks = lex_ok("0 42 123456789");
  EXPECT_EQ(toks[0].int_value, 0);
  EXPECT_EQ(toks[1].int_value, 42);
  EXPECT_EQ(toks[2].int_value, 123456789);
}

TEST(Lexer, IntegerOverflowIsRejected) {
  EXPECT_THROW(lex("99999999999999999999999"), CompileError);
}

TEST(Lexer, StringLiteralWithEscapedQuote) {
  auto toks = lex_ok("'a' 'don''t'");
  EXPECT_EQ(toks[0].kind, Tok::StringLit);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "don't");
}

TEST(Lexer, UnterminatedStringThrows) {
  EXPECT_THROW(lex("'abc"), CompileError);
}

TEST(Lexer, CompoundOperators) {
  auto toks = lex_ok(":= <> <= >= .. . : < >");
  EXPECT_EQ(toks[0].kind, Tok::Assign);
  EXPECT_EQ(toks[1].kind, Tok::Neq);
  EXPECT_EQ(toks[2].kind, Tok::Leq);
  EXPECT_EQ(toks[3].kind, Tok::Geq);
  EXPECT_EQ(toks[4].kind, Tok::DotDot);
  EXPECT_EQ(toks[5].kind, Tok::Dot);
  EXPECT_EQ(toks[6].kind, Tok::Colon);
  EXPECT_EQ(toks[7].kind, Tok::Lt);
  EXPECT_EQ(toks[8].kind, Tok::Gt);
}

TEST(Lexer, BraceCommentsAreSkipped) {
  auto toks = lex_ok("a { this is\na comment } b");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, ParenStarCommentsAreSkipped) {
  auto toks = lex_ok("x (* multi\nline *) y");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[1].text, "y");
}

TEST(Lexer, UnterminatedCommentsThrow) {
  EXPECT_THROW(lex("{ never closed"), CompileError);
  EXPECT_THROW(lex("(* never closed"), CompileError);
}

TEST(Lexer, LineAndColumnTracking) {
  auto toks = lex_ok("a\n  b");
  EXPECT_EQ(toks[0].loc.line, 1u);
  EXPECT_EQ(toks[0].loc.column, 1u);
  EXPECT_EQ(toks[1].loc.line, 2u);
  EXPECT_EQ(toks[1].loc.column, 3u);
}

TEST(Lexer, StrayCharacterThrows) {
  EXPECT_THROW(lex("a $ b"), CompileError);
}

TEST(Lexer, EstelleKeywords) {
  auto toks = lex_ok("specification channel module ip trans when provided "
                     "priority delay stateset initialize output same");
  EXPECT_EQ(toks[0].kind, Tok::KwSpecification);
  EXPECT_EQ(toks[1].kind, Tok::KwChannel);
  EXPECT_EQ(toks[2].kind, Tok::KwModule);
  EXPECT_EQ(toks[3].kind, Tok::KwIp);
  EXPECT_EQ(toks[4].kind, Tok::KwTrans);
  EXPECT_EQ(toks[5].kind, Tok::KwWhen);
  EXPECT_EQ(toks[6].kind, Tok::KwProvided);
  EXPECT_EQ(toks[7].kind, Tok::KwPriority);
  EXPECT_EQ(toks[8].kind, Tok::KwDelay);
  EXPECT_EQ(toks[9].kind, Tok::KwStateset);
  EXPECT_EQ(toks[10].kind, Tok::KwInitialize);
  EXPECT_EQ(toks[11].kind, Tok::KwOutput);
  EXPECT_EQ(toks[12].kind, Tok::KwSame);
}

TEST(Lexer, SlashIsAToken) {
  auto toks = lex_ok("a / b");
  EXPECT_EQ(toks[1].kind, Tok::Slash);
}

TEST(Scanner, PullsViewsIntoTheSource) {
  const std::string_view src = "x {c\n} 'don''t' 42";
  Scanner sc(src);
  EXPECT_EQ(sc.next(), Tok::Ident);
  EXPECT_EQ(sc.text().data(), src.data());
  EXPECT_EQ(sc.next(), Tok::StringLit);
  EXPECT_EQ(sc.text(), "'don''t'");
  EXPECT_EQ(sc.string_value(), "don't");
  EXPECT_EQ(sc.loc(), (SourceLoc{2, 3}));
  EXPECT_EQ(sc.next(), Tok::IntLit);
  EXPECT_EQ(sc.int_value(), 42);
  EXPECT_EQ(sc.next(), Tok::End);
  EXPECT_EQ(sc.next(), Tok::End);
}

TEST(Scanner, LeavesKeywordsToClassifyIdent) {
  Scanner sc("END");
  EXPECT_EQ(sc.next(), Tok::Ident);
  EXPECT_EQ(classify_ident(sc.text()), Tok::KwEnd);
}

TEST(Scanner, NumbersLinesAndPrefixesDiagnostics) {
  Scanner sc("  a 99999999999999999999", 7, "trace: ");
  sc.next();
  try {
    sc.next();
    FAIL() << "overflow not reported";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.loc(), (SourceLoc{7, 5}));
    EXPECT_STREQ(e.what(), "7:5: trace: integer literal overflows 64 bits");
  }
}

}  // namespace
}  // namespace tango::est
