#include "trace/dynamic_source.hpp"

namespace tango::tr {

bool MemoryFeed::poll(Trace& trace) {
  bool delivered = !pending_.empty();
  while (!pending_.empty()) {
    trace.append(std::move(pending_.front()));
    pending_.pop_front();
  }
  delivered |= reader_.read(lines_, trace);
  lines_.clear();
  if (eof_ && !trace.eof()) {
    trace.mark_eof();
    delivered = true;
  }
  return delivered;
}

bool ChunkSource::poll(Trace& trace) {
  bool delivered = reader_.read(buffer_, trace);
  buffer_.clear();
  if (eof_) {
    // The eof frame ends the text: a final unterminated line counts.
    delivered |= reader_.finish(trace);
    if (!trace.eof()) {
      trace.mark_eof();
      delivered = true;
    }
  }
  return delivered;
}

FileFollower::FileFollower(const est::Spec& spec, std::string path)
    : reader_(spec), path_(std::move(path)) {}

bool FileFollower::poll(Trace& trace) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size <= offset_) return false;
  in.seekg(offset_);
  std::string chunk(static_cast<std::size_t>(size - offset_), '\0');
  in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  offset_ = size;
  return reader_.read(chunk, trace);
}

}  // namespace tango::tr
