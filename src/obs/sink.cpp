#include "obs/sink.hpp"

#include <stdexcept>

namespace tango::obs {

JsonlSink::JsonlSink(const std::string& path, std::size_t ring_capacity)
    : out_(path, std::ios::binary),
      ring_(ring_capacity == 0 ? 1 : ring_capacity) {
  if (!out_) {
    throw std::runtime_error("cannot open events file '" + path + "'");
  }
}

JsonlSink::~JsonlSink() { flush(); }

void JsonlSink::emit(const Event& e) {
  std::string line = to_jsonl(e);
  std::lock_guard<std::mutex> lock(mu_);
  ring_[ring_size_++] = std::move(line);
  written_.fetch_add(1, std::memory_order_relaxed);
  if (ring_size_ == ring_.size()) flush_locked();
}

void JsonlSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
  out_.flush();
}

void JsonlSink::flush_locked() {
  for (std::size_t i = 0; i < ring_size_; ++i) {
    out_ << ring_[i] << '\n';
    ring_[i].clear();
  }
  ring_size_ = 0;
}

}  // namespace tango::obs
