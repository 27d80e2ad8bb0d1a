// Dynamic trace files (paper §3): a trace that can grow while the analyzer
// runs. A TraceSource is polled periodically by the on-line analyzer; any
// process can keep appending to the underlying file/feed. The end-of-file
// marker turns every partially-generated search node into a fully generated
// one, allowing a conclusive verdict (§3.1.2).
#pragma once

#include <deque>
#include <fstream>
#include <string>
#include <string_view>

#include "estelle/spec.hpp"
#include "trace/trace_io.hpp"

namespace tango::tr {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Appends newly available events to `trace` (and marks eof when the
  /// source signalled it). Returns true if anything new was delivered.
  virtual bool poll(Trace& trace) = 0;
};

/// In-memory feed: tests and embedding programs push events (or event
/// lines) and the analyzer picks them up at its next poll.
class MemoryFeed final : public TraceSource {
 public:
  explicit MemoryFeed(const est::Spec& spec) : reader_(spec) {}

  void push(TraceEvent e) { pending_.push_back(std::move(e)); }
  /// Queues one trace-text line, read at the next poll like a file's.
  void push_line(std::string_view line) {
    lines_.append(line);
    lines_ += '\n';
  }
  void push_eof() { eof_ = true; }

  bool poll(Trace& trace) override;

 private:
  TraceReader reader_;
  std::deque<TraceEvent> pending_;
  std::string lines_;  // pushed lines not yet read
  bool eof_ = false;
};

/// Transport-fed source for the analysis server (docs/SERVER.md): a
/// network session pushes raw chunk text exactly as it arrived on the wire
/// — chunks may split an event line anywhere — and the analyzer polls the
/// complete lines like a growing file. The eof marker comes either as an
/// `eof` protocol frame (push_eof, which also ends the text) or as an
/// `eof` line inside a chunk; either way the next poll makes every
/// partially generated node fully generated (§3.1.2). Single-threaded by
/// design: the session worker that pushes chunks is the thread that runs
/// the analyzer.
class ChunkSource final : public TraceSource {
 public:
  explicit ChunkSource(const est::Spec& spec) : reader_(spec) {}

  /// Appends raw trace text (need not end on a line boundary).
  void push_chunk(std::string_view text) { buffer_.append(text); }
  void push_eof() { eof_ = true; }

  bool poll(Trace& trace) override;

 private:
  TraceReader reader_;
  std::string buffer_;  // pushed text not yet read
  bool eof_ = false;
};

/// Follows a growing trace file on disk: each poll reads the text appended
/// since the previous poll. A line still being written waits for its
/// newline; an `eof` line ends the trace.
class FileFollower final : public TraceSource {
 public:
  FileFollower(const est::Spec& spec, std::string path);

  bool poll(Trace& trace) override;

 private:
  TraceReader reader_;
  std::string path_;
  std::streamoff offset_ = 0;
};

}  // namespace tango::tr
