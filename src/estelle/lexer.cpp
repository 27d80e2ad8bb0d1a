#include "estelle/lexer.hpp"

#include <limits>
#include <unordered_map>

#include "support/diagnostics.hpp"
#include "support/text.hpp"

namespace tango::est {

namespace {

const std::unordered_map<std::string, Tok>& keyword_table() {
  static const std::unordered_map<std::string, Tok> table = {
      {"and", Tok::KwAnd},
      {"array", Tok::KwArray},
      {"begin", Tok::KwBegin},
      {"case", Tok::KwCase},
      {"const", Tok::KwConst},
      {"div", Tok::KwDiv},
      {"do", Tok::KwDo},
      {"downto", Tok::KwDownto},
      {"else", Tok::KwElse},
      {"end", Tok::KwEnd},
      {"for", Tok::KwFor},
      {"function", Tok::KwFunction},
      {"if", Tok::KwIf},
      {"mod", Tok::KwMod},
      {"nil", Tok::KwNil},
      {"not", Tok::KwNot},
      {"of", Tok::KwOf},
      {"or", Tok::KwOr},
      {"otherwise", Tok::KwOtherwise},
      {"procedure", Tok::KwProcedure},
      {"record", Tok::KwRecord},
      {"repeat", Tok::KwRepeat},
      {"then", Tok::KwThen},
      {"to", Tok::KwTo},
      {"type", Tok::KwType},
      {"until", Tok::KwUntil},
      {"var", Tok::KwVar},
      {"while", Tok::KwWhile},
      {"specification", Tok::KwSpecification},
      {"channel", Tok::KwChannel},
      {"by", Tok::KwBy},
      {"module", Tok::KwModule},
      {"systemprocess", Tok::KwSystemprocess},
      {"process", Tok::KwProcess},
      {"systemactivity", Tok::KwSystemactivity},
      {"activity", Tok::KwActivity},
      {"ip", Tok::KwIp},
      {"individual", Tok::KwIndividual},
      {"common", Tok::KwCommon},
      {"queue", Tok::KwQueue},
      {"default", Tok::KwDefault},
      {"body", Tok::KwBody},
      {"state", Tok::KwState},
      {"stateset", Tok::KwStateset},
      {"initialize", Tok::KwInitialize},
      {"trans", Tok::KwTrans},
      {"from", Tok::KwFrom},
      {"when", Tok::KwWhen},
      {"provided", Tok::KwProvided},
      {"priority", Tok::KwPriority},
      {"delay", Tok::KwDelay},
      {"name", Tok::KwName},
      {"same", Tok::KwSame},
      {"output", Tok::KwOutput},
      {"primitive", Tok::KwPrimitive},
      {"any", Tok::KwAny},
      {"all", Tok::KwAll},
      {"forone", Tok::KwForone},
      {"exist", Tok::KwExist},
  };
  return table;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

}  // namespace

std::string_view tok_name(Tok t) {
  switch (t) {
    case Tok::End: return "end of input";
    case Tok::Ident: return "identifier";
    case Tok::IntLit: return "integer literal";
    case Tok::StringLit: return "string literal";
    case Tok::Semi: return "';'";
    case Tok::Colon: return "':'";
    case Tok::Comma: return "','";
    case Tok::Dot: return "'.'";
    case Tok::DotDot: return "'..'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::Caret: return "'^'";
    case Tok::Assign: return "':='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Eq: return "'='";
    case Tok::Neq: return "'<>'";
    case Tok::Lt: return "'<'";
    case Tok::Leq: return "'<='";
    case Tok::Gt: return "'>'";
    case Tok::Geq: return "'>='";
    case Tok::KwAnd: return "'and'";
    case Tok::KwArray: return "'array'";
    case Tok::KwBegin: return "'begin'";
    case Tok::KwCase: return "'case'";
    case Tok::KwConst: return "'const'";
    case Tok::KwDiv: return "'div'";
    case Tok::KwDo: return "'do'";
    case Tok::KwDownto: return "'downto'";
    case Tok::KwElse: return "'else'";
    case Tok::KwEnd: return "'end'";
    case Tok::KwFor: return "'for'";
    case Tok::KwFunction: return "'function'";
    case Tok::KwIf: return "'if'";
    case Tok::KwMod: return "'mod'";
    case Tok::KwNil: return "'nil'";
    case Tok::KwNot: return "'not'";
    case Tok::KwOf: return "'of'";
    case Tok::KwOr: return "'or'";
    case Tok::KwOtherwise: return "'otherwise'";
    case Tok::KwProcedure: return "'procedure'";
    case Tok::KwRecord: return "'record'";
    case Tok::KwRepeat: return "'repeat'";
    case Tok::KwThen: return "'then'";
    case Tok::KwTo: return "'to'";
    case Tok::KwType: return "'type'";
    case Tok::KwUntil: return "'until'";
    case Tok::KwVar: return "'var'";
    case Tok::KwWhile: return "'while'";
    case Tok::KwSpecification: return "'specification'";
    case Tok::KwChannel: return "'channel'";
    case Tok::KwBy: return "'by'";
    case Tok::KwModule: return "'module'";
    case Tok::KwSystemprocess: return "'systemprocess'";
    case Tok::KwProcess: return "'process'";
    case Tok::KwSystemactivity: return "'systemactivity'";
    case Tok::KwActivity: return "'activity'";
    case Tok::KwIp: return "'ip'";
    case Tok::KwIndividual: return "'individual'";
    case Tok::KwCommon: return "'common'";
    case Tok::KwQueue: return "'queue'";
    case Tok::KwDefault: return "'default'";
    case Tok::KwBody: return "'body'";
    case Tok::KwState: return "'state'";
    case Tok::KwStateset: return "'stateset'";
    case Tok::KwInitialize: return "'initialize'";
    case Tok::KwTrans: return "'trans'";
    case Tok::KwFrom: return "'from'";
    case Tok::KwWhen: return "'when'";
    case Tok::KwProvided: return "'provided'";
    case Tok::KwPriority: return "'priority'";
    case Tok::KwDelay: return "'delay'";
    case Tok::KwName: return "'name'";
    case Tok::KwSame: return "'same'";
    case Tok::KwOutput: return "'output'";
    case Tok::KwPrimitive: return "'primitive'";
    case Tok::KwAny: return "'any'";
    case Tok::KwAll: return "'all'";
    case Tok::KwForone: return "'forone'";
    case Tok::KwExist: return "'exist'";
  }
  return "token";
}

Tok classify_ident(std::string_view spelling) {
  const auto& table = keyword_table();
  auto it = table.find(to_lower(spelling));
  return it == table.end() ? Tok::Ident : it->second;
}

Tok Scanner::next() {
  for (;;) {  // blanks and comments
    const char c = at(pos_);
    if (c == ' ' || (c >= '\t' && c <= '\r')) {
      skip_to(pos_ + 1);
      continue;
    }
    const bool brace = c == '{';
    if (!brace && (c != '(' || at(pos_ + 1) != '*')) break;
    const std::size_t len = brace ? 1 : 2;  // of the opener and the closer
    const std::size_t close = src_.find(brace ? "}" : "*)", pos_ + len);
    if (close == std::string_view::npos) {
      fail(pos_,
           brace ? "unterminated '{' comment" : "unterminated '(*' comment");
    }
    skip_to(close + len);
  }
  start_ = pos_;
  if (pos_ == src_.size()) return kind_ = Tok::End;
  const char c = src_[pos_++];
  if (is_digit(c)) {
    int_ = c - '0';
    for (; is_digit(at(pos_)); ++pos_) {
      const int digit = src_[pos_] - '0';
      if (int_ > (std::numeric_limits<std::int64_t>::max() - digit) / 10) {
        fail(start_, "integer literal overflows 64 bits");
      }
      int_ = int_ * 10 + digit;
    }
    return kind_ = Tok::IntLit;
  }
  if (is_alpha(c)) {
    while (is_alpha(at(pos_)) || is_digit(at(pos_))) ++pos_;
    return kind_ = Tok::Ident;
  }
  if (c == '\'') {
    for (;;) {
      const std::size_t quote = src_.find_first_of("'\n", pos_);
      if (quote == std::string_view::npos) {
        fail(start_, "unterminated string literal");
      }
      if (src_[quote] == '\n') fail(start_, "string literal spans a line");
      pos_ = quote + 1;
      if (at(pos_) != '\'') return kind_ = Tok::StringLit;
      ++pos_;  // a doubled quote escapes a quote
    }
  }
  // `c`, or `c` and then `second`.
  const auto pair = [this](char second, Tok both, Tok one) {
    if (at(pos_) != second) return one;
    ++pos_;
    return both;
  };
  switch (c) {
    case ';': return kind_ = Tok::Semi;
    case ',': return kind_ = Tok::Comma;
    case '(': return kind_ = Tok::LParen;
    case ')': return kind_ = Tok::RParen;
    case '[': return kind_ = Tok::LBracket;
    case ']': return kind_ = Tok::RBracket;
    case '^': return kind_ = Tok::Caret;
    case '+': return kind_ = Tok::Plus;
    case '-': return kind_ = Tok::Minus;
    case '*': return kind_ = Tok::Star;
    case '/': return kind_ = Tok::Slash;
    case '=': return kind_ = Tok::Eq;
    case '.': return kind_ = pair('.', Tok::DotDot, Tok::Dot);
    case ':': return kind_ = pair('=', Tok::Assign, Tok::Colon);
    case '>': return kind_ = pair('=', Tok::Geq, Tok::Gt);
    case '<':
      if (at(pos_) == '>') return kind_ = pair('>', Tok::Neq, Tok::Lt);
      return kind_ = pair('=', Tok::Leq, Tok::Lt);
    default:
      fail(start_, std::string("stray character '") + c + "'");
  }
}

std::string Scanner::string_value() const {
  const std::string_view body = src_.substr(start_ + 1, pos_ - start_ - 2);
  std::string out;
  for (std::size_t i = 0; i < body.size(); ++i) {
    out += body[i];
    if (body[i] == '\'') ++i;  // the second quote of a doubled one
  }
  return out;
}

void Scanner::skip_to(std::size_t end) {
  for (; pos_ < end; ++pos_) {
    if (src_[pos_] == '\n') {
      ++line_;
      line_start_ = pos_ + 1;
    }
  }
}

void Scanner::fail(std::size_t where, const std::string& msg) const {
  throw CompileError(loc_at(where), std::string(context_) + msg);
}

std::vector<Token> lex(std::string_view source) {
  std::vector<Token> out;
  Scanner sc(source);
  do {
    Token t{sc.next(), {}, 0, sc.loc()};
    switch (t.kind) {
      case Tok::Ident:
        t.text = sc.text();
        t.kind = classify_ident(t.text);
        break;
      case Tok::IntLit:
        t.text = sc.text();
        t.int_value = sc.int_value();
        break;
      case Tok::StringLit:
        t.text = sc.string_value();
        break;
      default:
        break;
    }
    out.push_back(std::move(t));
  } while (out.back().kind != Tok::End);
  return out;
}

}  // namespace tango::est
