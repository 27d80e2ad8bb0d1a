// Text representation of traces.
//
// Grammar, one event per line:
//   in  <ip>.<interaction>            no-parameter interaction
//   out <ip>.<interaction>(v1, v2)    parameters in channel-declaration order
//   eof                               end-of-file marker (forces termination
//                                     of on-line analysis, paper §3.1.2)
//   # ...                             comment
//
// Parameter values: integers (an optional `-` before digits that fit a
// signed 64-bit value), true/false, 'c' characters (`''''` is a quote),
// enumeration literal names, `_` for an undefined value (partial traces),
// `(...)` for records and `[...]` for arrays, nested freely. The tokens are
// Estelle's, pulled from the spec lexer's est::Scanner: blanks and `{...}`
// or `(*...*)` comments may stand between any two, names are
// case-insensitive and a keyword is no name (docs/DIALECT.md). Trace files
// carry NO time stamps — a deliberate Tango restriction (§2.1).
#pragma once

#include <string>
#include <string_view>

#include "estelle/spec.hpp"
#include "trace/event.hpp"

namespace tango::tr {

/// Renders one event (without trailing newline).
[[nodiscard]] std::string format_event(const est::Spec& spec,
                                       const TraceEvent& e);

/// Renders the whole trace, one event per line, plus `eof` when marked.
[[nodiscard]] std::string to_text(const est::Spec& spec, const Trace& trace);

/// Parses one event line (no comments/blank lines/`eof` here). Errors
/// carry `line_no` and the column of the offending token in `line`.
[[nodiscard]] TraceEvent parse_event_line(const est::Spec& spec,
                                          std::string_view line,
                                          std::uint32_t line_no);

/// The trace-text line rules, in the one reader every trace surface uses:
/// parse_trace, the server's ChunkSource, FileFollower (`tango online`) and
/// MemoryFeed. Text arrives in pieces that may split a line anywhere; lines
/// are numbered from 1 over the whole text and trimmed; blank lines and
/// `#` comments are skipped; an `eof` line (any case) marks the trace eof,
/// after which only blank, comment and `eof` lines may follow — an event
/// there is a CompileError. An unterminated last line is read once the
/// input is known to be complete (finish); an unterminated `eof` marks the
/// trace at once, since nothing may follow it anyway.
class TraceReader {
 public:
  explicit TraceReader(const est::Spec& spec) : spec_(spec) {}

  /// Reads every line `text` completes into `trace`; keeps the rest for
  /// the next call. Returns true when events or the eof mark arrived.
  bool read(std::string_view text, Trace& trace);
  /// End of input: reads the kept unterminated line, if any.
  bool finish(Trace& trace);

 private:
  void read_line(std::string_view line, Trace& trace);

  const est::Spec& spec_;
  std::string tail_;  // unterminated text after the last newline
  std::string name_;  // scratch: the event's names, lower-cased
  std::uint32_t line_no_ = 0;
};

/// Parses a complete trace text. The trace is marked eof when the text
/// contains an `eof` line or `assume_eof` is set (static mode).
[[nodiscard]] Trace parse_trace(const est::Spec& spec, std::string_view text,
                                bool assume_eof = true);

/// Reads a whole trace text from `path`, or from standard input when
/// `path` is "-". The one load path `tango analyze -`, `tango submit` and
/// shell pipelines share. Throws CompileError when the file cannot be
/// opened.
[[nodiscard]] std::string read_trace_text(const std::string& path);

/// read_trace_text + parse_trace.
[[nodiscard]] Trace load_trace(const est::Spec& spec, const std::string& path,
                               bool assume_eof = true);

}  // namespace tango::tr
