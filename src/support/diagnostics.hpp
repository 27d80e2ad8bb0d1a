// Diagnostic collection shared by the frontend, the transform passes and the
// analyzer. Fatal conditions (parse errors, semantic errors, runtime faults)
// are reported through exceptions carrying a Diagnostic; non-fatal notes and
// warnings accumulate in a DiagnosticSink.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "support/source_location.hpp"

namespace tango {

enum class Severity { Note, Warning, Error };

struct Diagnostic {
  Severity severity = Severity::Error;
  SourceLoc loc;
  std::string message;

  [[nodiscard]] std::string render() const;
};

/// Accumulates diagnostics produced while processing one compilation unit.
class DiagnosticSink {
 public:
  void report(Severity sev, SourceLoc loc, std::string message);
  void note(SourceLoc loc, std::string message) {
    report(Severity::Note, loc, std::move(message));
  }
  void warn(SourceLoc loc, std::string message) {
    report(Severity::Warning, loc, std::move(message));
  }
  void error(SourceLoc loc, std::string message) {
    report(Severity::Error, loc, std::move(message));
  }

  [[nodiscard]] bool has_errors() const { return error_count_ != 0; }
  [[nodiscard]] std::size_t error_count() const { return error_count_; }
  [[nodiscard]] const std::vector<Diagnostic>& all() const { return diags_; }

  /// All diagnostics rendered one per line, suitable for terminal output.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<Diagnostic> diags_;
  std::size_t error_count_ = 0;
};

/// Thrown for unrecoverable frontend errors (lexing/parsing/semantic).
class CompileError : public std::runtime_error {
 public:
  CompileError(SourceLoc loc, const std::string& message)
      : std::runtime_error(to_string(loc) + ": " + message), loc_(loc) {}

  [[nodiscard]] SourceLoc loc() const { return loc_; }

 private:
  SourceLoc loc_;
};

/// Thrown for a malformed command line or flag value. It has no source
/// position: the message is what the user typed and what was expected.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown for faults while executing specification code (e.g. use of an
/// undefined value in strict mode, nil dereference, out-of-range index).
class RuntimeFault : public std::runtime_error {
 public:
  RuntimeFault(SourceLoc loc, const std::string& message)
      : std::runtime_error(to_string(loc) + ": " + message), loc_(loc) {}

  [[nodiscard]] SourceLoc loc() const { return loc_; }

 private:
  SourceLoc loc_;
};

}  // namespace tango
