#include "server/client.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "core/option_table.hpp"
#include "server/framing.hpp"
#include "server/net.hpp"
#include "support/text.hpp"
#include "support/version.hpp"

namespace tango::srv {

namespace {

/// Splits the trace into chunk frames of `chunk_size` lines. chunk_size 0
/// means one chunk carrying everything. Chunks end on line boundaries —
/// the server tolerates arbitrary splits, but event-aligned chunks make
/// the trickle test deterministic in how much each growth reveals.
std::vector<std::string> make_chunks(const std::string& text,
                                     std::size_t chunk_size) {
  if (chunk_size == 0) return {text};
  std::vector<std::string> chunks;
  std::string current;
  std::size_t lines = 0;
  for (std::string_view raw : split(text, '\n')) {
    current.append(raw);
    current.push_back('\n');
    if (++lines >= chunk_size) {
      chunks.push_back(std::move(current));
      current.clear();
      lines = 0;
    }
  }
  if (!current.empty()) chunks.push_back(std::move(current));
  if (chunks.empty()) chunks.push_back("");
  return chunks;
}

/// Blocks until one frame is available. False on close/timeout/garbage
/// with `err` set.
bool read_frame(int fd, FrameDecoder& decoder, int timeout_ms, Frame& out,
                std::string& err) {
  std::string payload;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    try {
      if (decoder.next(payload)) {
        out = parse_frame(payload);
        return true;
      }
    } catch (const FramingError& e) {
      err = e.what();
      return false;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      err = "timed out waiting for server reply";
      return false;
    }
    const int wait = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    char buf[64 * 1024];
    const int n = recv_some(fd, buf, sizeof(buf), wait > 200 ? 200 : wait);
    if (n == kRecvClosed) {
      err = "server closed the connection";
      return false;
    }
    if (n == kRecvError) {
      err = "connection error while waiting for reply";
      return false;
    }
    if (n > 0) decoder.feed(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace

SubmitResult submit_trace(const std::string& trace_text,
                          const SubmitOptions& opts) {
  SubmitResult result;
  ignore_sigpipe();

  Frame hello;
  hello.type = FrameType::Hello;
  hello.spec = opts.spec;
  hello.mode = opts.mode;
  hello.version = kTangoVersion;
  core::Options options = opts.options;
  if (!core::apply_order(options, opts.order)) {
    result.error = "unknown order '" + opts.order + "'";
    return result;
  }
  hello.options_json = core::write_options(options, core::kHello);

  std::string err;
  OwnedFd fd(connect_to(opts.host, opts.port, err));
  if (!fd.valid()) {
    result.error = err;
    return result;
  }
  if (!send_all(fd.get(), encode_frame(hello))) {
    result.error = "failed to send hello";
    return result;
  }

  FrameDecoder decoder;
  Frame reply;
  if (!read_frame(fd.get(), decoder, opts.reply_timeout_ms, reply,
                  result.error)) {
    return result;
  }
  if (reply.type == FrameType::Overloaded) {
    result.overloaded = true;
    result.error = reply.message.empty() ? "server overloaded" : reply.message;
    return result;
  }
  if (reply.type == FrameType::Error) {
    result.error = reply.message;
    return result;
  }
  if (reply.type != FrameType::Accepted) {
    result.error = "expected 'accepted', got '" +
                   std::string(to_string(reply.type)) + "'";
    return result;
  }
  result.server_version = reply.version;
  result.session_id = reply.session;

  // Stream the trace. Interim verdicts can arrive during the send; they
  // are picked up by the decoder as read_frame drains later. The server
  // may also conclude mid-stream (the trace text can carry its own eof
  // marker) — once the final verdict shows up, sending more frames would
  // hit a closing socket, so the eof frame and the wait loop are skipped.
  bool got_final = false;
  for (const std::string& chunk : make_chunks(trace_text, opts.chunk_size)) {
    Frame cf;
    cf.type = FrameType::Chunk;
    cf.text = chunk;
    if (!send_all(fd.get(), encode_frame(cf))) {
      result.error = "connection lost while sending trace";
      return result;
    }
    if (opts.chunk_delay_ms != 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts.chunk_delay_ms));
    }
    // Opportunistically drain interim verdicts so slow trickles report
    // assessments as they happen rather than all at the end.
    char buf[64 * 1024];
    int n;
    while ((n = recv_some(fd.get(), buf, sizeof(buf), 0)) > 0) {
      decoder.feed(buf, static_cast<std::size_t>(n));
    }
    std::string payload;
    try {
      while (decoder.next(payload)) {
        const Frame f = parse_frame(payload);
        if (f.type == FrameType::Verdict) {
          if (f.final_verdict) {
            result.final_status = f.status;
            result.reason = f.reason;
            got_final = true;
          } else {
            result.interim.push_back(f.status);
          }
        } else if (f.type == FrameType::Stats) {
          // The verdict and stats frames can ride the same packet as an
          // interim drain; losing the stats here would leave the final
          // read below waiting on a frame already consumed.
          result.stats_json = f.stats_json;
        } else if (f.type == FrameType::Error) {
          result.error = f.message;
          return result;
        }
      }
    } catch (const FramingError& e) {
      result.error = e.what();
      return result;
    }
    if (got_final) break;
  }
  if (!got_final) {
    Frame eof;
    eof.type = FrameType::Eof;
    if (!send_all(fd.get(), encode_frame(eof))) {
      result.error = "connection lost while sending eof";
      return result;
    }
  }

  // Collect interim verdicts until the final one, then the stats frame.
  while (!got_final) {
    if (!read_frame(fd.get(), decoder, opts.reply_timeout_ms, reply,
                    result.error)) {
      return result;
    }
    if (reply.type == FrameType::Verdict) {
      if (reply.final_verdict) {
        result.final_status = reply.status;
        result.reason = reply.reason;
        break;
      }
      result.interim.push_back(reply.status);
    } else if (reply.type == FrameType::Error) {
      result.error = reply.message;
      return result;
    } else {
      result.error = "unexpected '" + std::string(to_string(reply.type)) +
                     "' frame";
      return result;
    }
  }
  std::string stats_err;
  if (result.stats_json.empty() &&
      read_frame(fd.get(), decoder, opts.reply_timeout_ms, reply, stats_err) &&
      reply.type == FrameType::Stats) {
    result.stats_json = reply.stats_json;
  }
  if (result.stats_json.empty()) result.stats_json = "{}";
  result.completed = true;
  return result;
}

}  // namespace tango::srv
