#include "trace/trace_io.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

#include "estelle/lexer.hpp"
#include "support/text.hpp"

namespace tango::tr {

namespace {

using est::Tok;
using est::Token;
using est::Type;
using est::TypeKind;

std::string format_value(const rt::Value& v, const Type* t) {
  using Kind = rt::Value::Kind;
  switch (v.kind()) {
    case Kind::Record: {
      std::string out = "(";
      for (std::size_t i = 0; i < v.elems().size(); ++i) {
        if (i != 0) out += ", ";
        const Type* ft = t != nullptr && t->kind == TypeKind::Record
                             ? t->fields[i].type
                             : nullptr;
        out += format_value(v.elems()[i], ft);
      }
      return out + ")";
    }
    case Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.elems().size(); ++i) {
        if (i != 0) out += ", ";
        out += format_value(v.elems()[i],
                            t != nullptr ? t->element : nullptr);
      }
      return out + "]";
    }
    default:
      return v.to_string();  // scalars print the same way everywhere
  }
}

/// Parses one value of type `t` from the token stream.
class ValueParser {
 public:
  ValueParser(const std::vector<Token>& toks, std::uint32_t line_no)
      : toks_(toks), line_(line_no) {}

  rt::Value parse(const Type* t) {
    const Token& tok = peek();
    // `_` means undefined (any type).
    if (tok.kind == Tok::Ident && tok.text == "_") {
      advance();
      return rt::Value{};
    }
    switch (t->kind) {
      case TypeKind::Integer:
      case TypeKind::Subrange: {
        bool neg = false;
        if (peek().kind == Tok::Minus) {
          neg = true;
          advance();
        }
        const Token& it = expect(Tok::IntLit, "integer");
        return rt::Value::make_int(neg ? -it.int_value : it.int_value);
      }
      case TypeKind::Boolean: {
        const Token& bt = expect(Tok::Ident, "boolean");
        const std::string s = to_lower(bt.text);
        if (s == "true") return rt::Value::make_bool(true);
        if (s == "false") return rt::Value::make_bool(false);
        fail("expected true or false, got '" + bt.text + "'");
      }
      case TypeKind::Char: {
        const Token& ct = expect(Tok::StringLit, "char");
        if (ct.text.size() != 1) fail("char value must be one character");
        return rt::Value::make_char(ct.text[0]);
      }
      case TypeKind::Enum: {
        const Token& et = expect(Tok::Ident, "enum literal");
        const std::string s = to_lower(et.text);
        for (std::size_t i = 0; i < t->enum_values.size(); ++i) {
          if (t->enum_values[i] == s) {
            return rt::Value::make_enum(t, static_cast<std::int64_t>(i));
          }
        }
        fail("'" + et.text + "' is not a value of " + est::type_to_string(t));
      }
      case TypeKind::Record: {
        expect(Tok::LParen, "'('");
        std::vector<rt::Value> fields;
        for (std::size_t i = 0; i < t->fields.size(); ++i) {
          if (i != 0) expect(Tok::Comma, "','");
          fields.push_back(parse(t->fields[i].type));
        }
        expect(Tok::RParen, "')'");
        return rt::Value::make_record(std::move(fields));
      }
      case TypeKind::Array: {
        expect(Tok::LBracket, "'['");
        std::vector<rt::Value> elems;
        const auto n = static_cast<std::size_t>(t->hi - t->lo + 1);
        for (std::size_t i = 0; i < n; ++i) {
          if (i != 0) expect(Tok::Comma, "','");
          elems.push_back(parse(t->element));
        }
        expect(Tok::RBracket, "']'");
        return rt::Value::make_array(std::move(elems));
      }
      case TypeKind::Pointer:
        fail("pointer values cannot appear in traces");
    }
    fail("unsupported parameter type");
  }

  const Token& peek() const { return toks_[pos_ < toks_.size() ? pos_ : toks_.size() - 1]; }
  const Token& advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  const Token& expect(Tok k, const char* what) {
    if (peek().kind != k) {
      fail(std::string("expected ") + what);
    }
    return advance();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw CompileError(SourceLoc{line_, peek().loc.column},
                       "trace: " + msg);
  }

 private:
  const std::vector<Token>& toks_;
  std::uint32_t line_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string format_event(const est::Spec& spec, const TraceEvent& e) {
  const est::IpInfo& ip = spec.ips[static_cast<std::size_t>(e.ip)];
  const est::InteractionInfo& info = spec.interaction(e.interaction);
  std::string out = e.dir == Dir::In ? "in  " : "out ";
  out += ip.name;
  out += '.';
  out += info.name;
  if (!e.params.empty()) {
    out += '(';
    for (std::size_t i = 0; i < e.params.size(); ++i) {
      if (i != 0) out += ", ";
      out += format_value(e.params[i], info.param_types[i]);
    }
    out += ')';
  }
  return out;
}

std::string to_text(const est::Spec& spec, const Trace& trace) {
  std::string out;
  for (const TraceEvent& e : trace.events()) {
    out += format_event(spec, e);
    out += '\n';
  }
  if (trace.eof()) out += "eof\n";
  return out;
}

TraceEvent parse_event_line(const est::Spec& spec, std::string_view line,
                            std::uint32_t line_no) {
  std::vector<Token> toks = est::lex(line);
  ValueParser p(toks, line_no);

  const Token& dir_tok = p.expect(Tok::Ident, "'in' or 'out'");
  const std::string dir_s = to_lower(dir_tok.text);
  TraceEvent e;
  e.loc = SourceLoc{line_no, 1};
  if (dir_s == "in") {
    e.dir = Dir::In;
  } else if (dir_s == "out") {
    e.dir = Dir::Out;
  } else {
    p.fail("event must start with 'in' or 'out'");
  }

  const Token& ip_tok = p.expect(Tok::Ident, "ip name");
  e.ip = spec.ip_index(to_lower(ip_tok.text));
  if (e.ip < 0) p.fail("unknown ip '" + ip_tok.text + "'");
  p.expect(Tok::Dot, "'.'");
  const Token& msg_tok = p.expect(Tok::Ident, "interaction name");
  const std::string msg = to_lower(msg_tok.text);

  e.interaction = e.dir == Dir::In ? spec.input_id(e.ip, msg)
                                   : spec.output_id(e.ip, msg);
  if (e.interaction < 0) {
    p.fail("'" + msg + "' is not a valid " +
           (e.dir == Dir::In ? std::string("input") : std::string("output")) +
           " at ip '" + to_lower(ip_tok.text) + "'");
  }

  const est::InteractionInfo& info = spec.interaction(e.interaction);
  if (p.peek().kind == Tok::LParen) {
    p.advance();
    for (std::size_t i = 0; i < info.param_types.size(); ++i) {
      if (i != 0) p.expect(Tok::Comma, "','");
      e.params.push_back(p.parse(info.param_types[i]));
    }
    p.expect(Tok::RParen, "')'");
  } else if (!info.param_types.empty()) {
    p.fail("interaction '" + msg + "' expects " +
           std::to_string(info.param_types.size()) + " parameter(s)");
  }
  if (p.peek().kind != Tok::End) p.fail("trailing text after event");
  return e;
}

void TraceReader::read_line(std::string_view raw, Trace& trace) {
  ++line_no_;
  const std::string_view line = trim(raw);
  if (line.empty() || line.front() == '#') return;
  if (iequals(line, "eof")) {
    trace.mark_eof();
    return;
  }
  if (trace.eof()) {
    throw CompileError(SourceLoc{line_no_, 1},
                       "trace: events after the eof marker");
  }
  trace.append(parse_event_line(spec_, line, line_no_));
}

bool TraceReader::read(std::string_view text, Trace& trace) {
  const std::size_t events = trace.events().size();
  const bool eof = trace.eof();
  for (std::size_t nl; (nl = text.find('\n')) != std::string_view::npos;
       text.remove_prefix(nl + 1)) {
    if (tail_.empty()) {
      read_line(text.substr(0, nl), trace);
    } else {
      tail_.append(text.substr(0, nl));
      read_line(tail_, trace);
      tail_.clear();
    }
  }
  tail_.append(text);
  if (iequals(trim(tail_), "eof")) trace.mark_eof();
  return trace.events().size() != events || trace.eof() != eof;
}

bool TraceReader::finish(Trace& trace) {
  return !tail_.empty() && read("\n", trace);
}

Trace parse_trace(const est::Spec& spec, std::string_view text,
                  bool assume_eof) {
  Trace trace(static_cast<int>(spec.ips.size()));
  TraceReader reader(spec);
  reader.read(text, trace);
  reader.finish(trace);
  if (assume_eof) trace.mark_eof();
  return trace;
}

std::string read_trace_text(const std::string& path) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CompileError({}, "cannot open trace '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Trace load_trace(const est::Spec& spec, const std::string& path,
                 bool assume_eof) {
  return parse_trace(spec, read_trace_text(path), assume_eof);
}

}  // namespace tango::tr
