#include "trace/trace_io.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

#include "estelle/lexer.hpp"
#include "support/text.hpp"

namespace tango::tr {

namespace {

using est::Tok;
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

/// Reads one event line in one pass, straight into a TraceEvent, pulling
/// its tokens from est::Scanner. Names are lower-cased into `name` and
/// looked up in the spec's tables. A lexical error later on the line wins
/// over a grammar error, as it would had the line been tokenized first.
class EventParser {
 public:
  EventParser(const est::Spec& spec, std::string_view line,
              std::uint32_t line_no, std::string& name)
      : spec_(spec), sc_(line, line_no, "trace: "), name_(name) {
    sc_.next();
  }

  TraceEvent event() {
    TraceEvent e;
    e.loc = SourceLoc{sc_.loc().line, 1};
    const std::string_view dir = name("'in' or 'out'");
    if (dir != "in" && dir != "out") {
      reject_name("'in' or 'out'", "event must start with 'in' or 'out'");
    }
    e.dir = dir == "in" ? Dir::In : Dir::Out;
    e.ip = spec_.ip_index(name("ip name"));
    if (e.ip < 0) {
      reject_name("ip name", "unknown ip '" + std::string(spelling_) + "'");
    }
    expect(Tok::Dot);
    const std::string_view msg = name("interaction name");
    e.interaction = e.dir == Dir::In ? spec_.input_id(e.ip, msg)
                                     : spec_.output_id(e.ip, msg);
    if (e.interaction < 0) {
      reject_name("interaction name",
                  "'" + std::string(msg) + "' is not a valid " +
                      (e.dir == Dir::In ? "input" : "output") + " at ip '" +
                      spec_.ips[static_cast<std::size_t>(e.ip)].name + "'");
    }
    const est::InteractionInfo& info = spec_.interaction(e.interaction);
    if (accept(Tok::LParen)) {
      e.params.reserve(info.param_types.size());
      for (const Type* t : info.param_types) {
        if (!e.params.empty()) expect(Tok::Comma);
        e.params.push_back(value(t));
      }
      expect(Tok::RParen);
    } else if (!info.param_types.empty()) {
      fail(sc_.loc(), "interaction '" + info.name + "' expects " +
                          std::to_string(info.param_types.size()) +
                          " parameter(s)");
    }
    if (sc_.kind() != Tok::End) fail(sc_.loc(), "trailing text after event");
    return e;
  }

 private:
  rt::Value value(const Type* t) {
    if (sc_.kind() == Tok::Ident && sc_.text() == "_") {
      sc_.next();  // undefined, of any type
      return rt::Value{};
    }
    switch (t->kind) {
      case TypeKind::Integer:
      case TypeKind::Subrange: {
        const bool neg = accept(Tok::Minus);
        if (sc_.kind() != Tok::IntLit) fail(sc_.loc(), "expected integer");
        const std::int64_t v = sc_.int_value();
        sc_.next();
        return rt::Value::make_int(neg ? -v : v);
      }
      case TypeKind::Boolean: {
        const std::string_view s = name("boolean");
        if (s == "true" || s == "false") {
          return rt::Value::make_bool(s == "true");
        }
        reject_name("boolean",
                    "expected true or false, got '" + std::string(spelling_) +
                        "'");
      }
      case TypeKind::Char: {
        if (sc_.kind() != Tok::StringLit) fail(sc_.loc(), "expected char");
        const std::string s = sc_.string_value();
        if (s.size() != 1) {
          fail(sc_.loc(), "char value must be one character");
        }
        sc_.next();
        return rt::Value::make_char(s[0]);
      }
      case TypeKind::Enum: {
        const std::string_view s = name("enum literal");
        for (std::size_t i = 0; i < t->enum_values.size(); ++i) {
          if (t->enum_values[i] == s) {
            return rt::Value::make_enum(t, static_cast<std::int64_t>(i));
          }
        }
        reject_name("enum literal", "'" + std::string(spelling_) +
                                        "' is not a value of " +
                                        est::type_to_string(t));
      }
      case TypeKind::Record:
      case TypeKind::Array: {
        const bool rec = t->kind == TypeKind::Record;
        expect(rec ? Tok::LParen : Tok::LBracket);
        const auto n = rec ? t->fields.size()
                           : static_cast<std::size_t>(t->hi - t->lo + 1);
        rt::Value out = rt::Value::make_aggregate(
            rec ? rt::Value::Kind::Record : rt::Value::Kind::Array, n);
        const std::span<rt::Value> elems = out.elems();
        for (std::size_t i = 0; i < n; ++i) {
          if (i != 0) expect(Tok::Comma);
          elems[i] = value(rec ? t->fields[i].type : t->element);
        }
        expect(rec ? Tok::RParen : Tok::RBracket);
        return out;
      }
      case TypeKind::Pointer:
        fail(sc_.loc(), "pointer values cannot appear in traces");
    }
    fail(sc_.loc(), "unsupported parameter type");
  }

  /// Takes a name token; returns it lower-cased.
  std::string_view name(const char* what) {
    if (sc_.kind() != Tok::Ident) {
      fail(sc_.loc(), std::string("expected ") + what);
    }
    spelling_ = sc_.text();
    spelling_loc_ = sc_.loc();
    name_.assign(spelling_);
    for (char& c : name_) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    sc_.next();
    return name_;
  }

  /// The last name matched nothing; a keyword is no name at all.
  [[noreturn]] void reject_name(const char* what, const std::string& msg) {
    fail(spelling_loc_, est::classify_ident(name_) == Tok::Ident
                            ? msg
                            : std::string("expected ") + what);
  }

  bool accept(Tok t) {
    if (sc_.kind() != t) return false;
    sc_.next();
    return true;
  }

  void expect(Tok t) {
    if (!accept(t)) {
      fail(sc_.loc(), "expected " + std::string(est::tok_name(t)));
    }
  }

  /// Throws `msg` at `where`, once the rest of the line has been scanned,
  /// so that a lexical error there wins.
  [[noreturn]] void fail(SourceLoc where, const std::string& msg) {
    while (sc_.kind() != Tok::End) sc_.next();
    throw CompileError(where, "trace: " + msg);
  }

  const est::Spec& spec_;
  est::Scanner sc_;
  std::string& name_;          // the last name taken, lower-cased
  std::string_view spelling_;  // ... as written
  SourceLoc spelling_loc_;     // ... and where
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
  std::string name;
  return EventParser(spec, line, line_no, name).event();
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
    const auto col = static_cast<std::uint32_t>(line.data() - raw.data() + 1);
    throw CompileError(SourceLoc{line_no_, col},
                       "trace: events after the eof marker");
  }
  trace.append(EventParser(spec_, raw, line_no_, name_).event());
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
