// In-memory span recorder for the benchmark's traced run. A span is
// {name, start, end, parent, request}; spans are kept in a vector while
// the run goes and written out once at the end. Self time is a span's
// duration minus the durations of its direct children, which never
// overlap because one Tracer belongs to one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // string literal; never owned
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same Tracer, -1 at the root
  std::uint32_t request = 0;
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;

  [[nodiscard]] double total_s() const { return total_ns / 1e9; }
  [[nodiscard]] double self_s() const { return self_ns / 1e9; }
  [[nodiscard]] double ns_per_call() const {
    return calls == 0 ? 0.0 : static_cast<double>(total_ns) / calls;
  }
};

class Tracer {
 public:
  /// A disabled tracer records nothing; open() then returns -1.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int open(const char* name) {
    if (!enabled_) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, current_, request_});
    current_ = idx;
    return idx;
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(idx)].parent;
  }

  void set_request(std::uint32_t request) { request_ = request; }
  void clear() {
    spans_.clear();
    current_ = -1;
  }
  /// Appends `other`'s spans, re-basing their parent indexes.
  void absorb(const Tracer& other);

  /// Totals per span name, self time included.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Writes one tab-separated line per span: index, name, start_ns,
  /// end_ns, parent, request (times relative to the first span).
  bool write_tsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
  std::uint32_t request_ = 0;
};

/// RAII span around one call.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), idx_(tracer.open(name)) {}
  ~Span() { tracer_.close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int idx_;
};

}  // namespace perfbench
