// Event sinks. The null sink is a plain null pointer: engines guard every
// emission with `if (sink)`, so the disabled path costs one predictable
// branch (docs/OBSERVABILITY.md).
// Sinks must be thread-safe — the work-stealing engine emits from every
// worker — and own the stream-wide event-id counter so ids are unique
// across workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/schema.hpp"

namespace tango::obs {

class Sink {
 public:
  virtual ~Sink() = default;

  /// Records one event. Must be safe to call from multiple threads.
  virtual void emit(const Event& e) = 0;

  /// Allocates the next enter/fire node id (1-based, stream-wide).
  std::uint64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Optional annotations copied into the `run` header so `tango events
  /// replay` can reload the spec and trace without extra flags.
  void set_refs(std::string spec_ref, std::string trace_ref) {
    spec_ref_ = std::move(spec_ref);
    trace_ref_ = std::move(trace_ref);
  }
  [[nodiscard]] const std::string& spec_ref() const { return spec_ref_; }
  [[nodiscard]] const std::string& trace_ref() const { return trace_ref_; }

 private:
  std::atomic<std::uint64_t> ids_{0};
  std::string spec_ref_;
  std::string trace_ref_;
};

/// Test sink: keeps every event in memory, in emission order.
class MemorySink final : public Sink {
 public:
  void emit(const Event& e) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(e);
  }
  [[nodiscard]] std::vector<Event> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// `--events=<file>`: JSONL writer behind a fixed ring of formatted lines,
/// flushed to the file whenever the ring fills (and on destruction), so a
/// hot search loop pays string formatting but only periodic file IO.
class JsonlSink final : public Sink {
 public:
  explicit JsonlSink(const std::string& path, std::size_t ring_capacity = 256);
  ~JsonlSink() override;

  void emit(const Event& e) override;
  void flush();

  [[nodiscard]] std::uint64_t events_written() const {
    return written_.load(std::memory_order_relaxed);
  }

 private:
  void flush_locked();

  std::mutex mu_;
  std::ofstream out_;
  std::vector<std::string> ring_;
  std::size_t ring_size_ = 0;
  std::atomic<std::uint64_t> written_{0};
};

}  // namespace tango::obs
