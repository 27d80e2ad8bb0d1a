// The one diagnostic a search keeps for an Invalid verdict. A search vetoes
// many firings but reports one note; the rule that picks it lives here, and
// a TraceMatcher asks it first, so a veto sentence is formatted only when
// the note would keep it.
#pragma once

#include <string>
#include <string_view>
#include <utility>

namespace tango::core {

/// Keeps the first note offered, and replaces it once, by the first
/// parameter-class note (a concrete parameter mismatch beats ordering
/// complaints from unrelated failed interleavings). Whether the kept text
/// is parameter-class is cached, so nothing re-scans it.
///
/// A TraceMatcher classes its vetoes by kind: a parameter mismatch is
/// parameter-class, the other vetoes are not. Fault texts (runtime faults,
/// provided-clause faults) are classed by content: they are parameter-class
/// when they contain "parameter". The kind-based class differs from a
/// content test only when an ip or interaction name contains "parameter";
/// no built-in or fuzz-generated spec has such a name.
class VetoNote {
 public:
  /// True if offering a note of this class would keep it.
  [[nodiscard]] bool wants(bool parameter_class) const {
    return text_.empty() || (parameter_class && !parameter_);
  }

  /// Offers a note whose class the caller knows. Empty text is ignored.
  void offer(std::string text, bool parameter_class) {
    if (text.empty() || !wants(parameter_class)) return;
    text_ = std::move(text);
    parameter_ = parameter_class;
  }

  /// Offers a fault text, classed by its content.
  void offer_fault(std::string_view text) {
    if (text.empty() || !wants(true)) return;
    const bool parameter_class = text.find("parameter") != text.npos;
    if (!wants(parameter_class)) return;
    text_.assign(text);
    parameter_ = parameter_class;
  }

  /// Offers the note `later` kept. Merging notes in the order their
  /// searches ran keeps what offering every note one by one would.
  void merge(const VetoNote& later) {
    if (later.text_.empty() || !wants(later.parameter_)) return;
    text_ = later.text_;
    parameter_ = later.parameter_;
  }

  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  std::string text_;
  bool parameter_ = false;
};

}  // namespace tango::core
