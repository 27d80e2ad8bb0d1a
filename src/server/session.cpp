#include "server/session.hpp"

#include <memory>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/mdfs.hpp"
#include "core/option_table.hpp"
#include "core/parallel_dfs.hpp"
#include "obs/json.hpp"
#include "obs/schema.hpp"
#include "obs/sink.hpp"
#include "server/framing.hpp"
#include "server/net.hpp"
#include "server/registry.hpp"
#include "support/diagnostics.hpp"
#include "support/version.hpp"
#include "trace/dynamic_source.hpp"
#include "trace/trace_io.hpp"

namespace tango::srv {

namespace {

/// Connection state threaded through the phases: the decoder must survive
/// the hello -> analysis transition (a fast client's first chunk can ride
/// the same packet as its hello).
struct Conn {
  int fd = -1;
  FrameDecoder decoder;
  bool closed = false;  // orderly peer close
  bool broken = false;  // connection error
};

bool send_frame(const Conn& c, const Frame& f) {
  return send_all(c.fd, encode_frame(f));
}

void send_error(const Conn& c, const std::string& msg) {
  Frame f;
  f.type = FrameType::Error;
  f.message = msg;
  (void)send_frame(c, f);
}

/// Reads once (blocking up to `timeout_ms`), then decodes every complete
/// frame already buffered. Throws FramingError on wire garbage.
void pump_socket(Conn& c, int timeout_ms, std::vector<Frame>& out) {
  char buf[64 * 1024];
  int wait = timeout_ms;
  while (!c.closed && !c.broken) {
    const int n = recv_some(c.fd, buf, sizeof(buf), wait);
    if (n == kRecvTimeout) break;
    if (n == kRecvClosed) {
      c.closed = true;
      break;
    }
    if (n == kRecvError) {
      c.broken = true;
      break;
    }
    c.decoder.feed(buf, static_cast<std::size_t>(n));
    wait = 0;  // drain back-to-back packets without blocking again
  }
  std::string payload;
  while (c.decoder.next(payload)) out.push_back(parse_frame(payload));
}

void send_final(const Conn& c, std::string_view status, std::string_view reason,
                const core::Stats& stats) {
  Frame v;
  v.type = FrameType::Verdict;
  v.status = std::string(status);
  v.final_verdict = true;
  v.reason = std::string(reason);
  if (!send_frame(c, v)) return;
  Frame s;
  s.type = FrameType::Stats;
  s.stats_json = stats.to_json();
  (void)send_frame(c, s);
}

[[nodiscard]] bool draining(const SessionContext& ctx) {
  return ctx.draining != nullptr &&
         ctx.draining->load(std::memory_order_relaxed);
}

/// Waits for the peer to close before we do. Closing first is not safe:
/// the trace can conclude the search by itself (an in-band `eof` line),
/// so the client's eof frame may still be in flight when the verdict goes
/// out — data arriving at a closed socket provokes an RST that destroys
/// the client's unread reply. Bounded so a wedged client can't pin a
/// worker, and cut short once the server drains so a client that keeps
/// its socket open can't hold up shutdown.
void linger_until_peer_closes(Conn& c, const SessionContext& ctx) {
  char buf[4 * 1024];
  for (int waited = 0;
       !c.closed && !c.broken && waited < 2000 && !draining(ctx);) {
    const int n = recv_some(c.fd, buf, sizeof(buf), 100);
    if (n == kRecvClosed) c.closed = true;
    if (n == kRecvError) c.broken = true;
    if (n == kRecvTimeout) waited += 100;
  }
}

/// MDFS over a socket-fed ChunkSource: chunks resume the search like a
/// growing trace file; assessment edges go out as interim verdict frames.
/// `pending` holds frames that rode the same packets as the hello.
void run_online(Conn& c, const SessionContext& ctx, const PreparedSpec& ps,
                const core::Options& opts, std::vector<Frame> pending) {
  tr::ChunkSource source(ps.spec);
  core::OnlineConfig cfg;
  cfg.options = opts;
  core::OnlineAnalyzer analyzer(ps.spec, source, std::move(cfg));

  bool cancelled = false;
  // Search from the first chunk or eof on, like `tango online` on a file:
  // MDFS can conclude on the empty prefix before it (say, when every input
  // ip is disabled).
  bool fed = false;
  while (true) {
    // Absorb whatever the client sent; block only when the search is
    // quiescent (waiting on more trace), never while it has work.
    const bool busy =
        fed && analyzer.status() == core::OnlineStatus::Searching;
    std::vector<Frame> frames = std::move(pending);
    pending.clear();
    pump_socket(c, busy || !frames.empty() ? 0 : 2, frames);
    for (const Frame& f : frames) {
      switch (f.type) {
        case FrameType::Chunk:
          source.push_chunk(f.text);
          fed = true;
          break;
        case FrameType::Eof:
          source.push_eof();
          fed = true;
          break;
        case FrameType::Cancel:
          cancelled = true;
          break;
        default:
          throw FramingError("unexpected '" +
                             std::string(to_string(f.type)) +
                             "' frame mid-session");
      }
    }
    if (cancelled || draining(ctx)) {
      analyzer.abort(core::InconclusiveReason::Shutdown);
    }
    if (c.closed || c.broken) {
      // Peer is gone: conclude (so the event stream gets its verdict) and
      // tear down without writing to the dead socket.
      analyzer.abort(core::InconclusiveReason::Shutdown);
      analyzer.finalize_stream();
      return;
    }

    if (fed) analyzer.step_round(ctx.config->steps_per_round);

    if (analyzer.conclusive()) {
      analyzer.finalize_stream();
      const core::OnlineStatus st = analyzer.status();
      send_final(c, core::to_string(st),
                 st == core::OnlineStatus::Inconclusive
                     ? core::to_string(analyzer.stats().reason)
                     : std::string_view{},
                 analyzer.stats());
      return;
    }
    core::OnlineStatus now;
    if (analyzer.take_status_change(now) &&
        (now == core::OnlineStatus::ValidSoFar ||
         now == core::OnlineStatus::LikelyInvalid)) {
      Frame v;
      v.type = FrameType::Verdict;
      v.status = std::string(core::to_string(now));
      v.final_verdict = false;
      if (!send_frame(c, v)) c.broken = true;
    }
  }
}

/// Static mode: buffer the whole trace, then one analyze_parallel run
/// with the session's jobs (1 searches inline).
void run_static(Conn& c, const SessionContext& ctx, const PreparedSpec& ps,
                const core::Options& opts, std::vector<Frame> pending) {
  std::string text;
  bool eof = false;
  while (!eof) {
    if (draining(ctx)) {
      send_final(c, "inconclusive", "shutdown", core::Stats{});
      return;
    }
    std::vector<Frame> frames = std::move(pending);
    pending.clear();
    pump_socket(c, frames.empty() ? 50 : 0, frames);
    for (const Frame& f : frames) {
      switch (f.type) {
        case FrameType::Chunk:
          text += f.text;
          break;
        case FrameType::Eof:
          eof = true;
          break;
        case FrameType::Cancel:
          send_final(c, "inconclusive", "shutdown", core::Stats{});
          return;
        default:
          throw FramingError("unexpected '" +
                             std::string(to_string(f.type)) +
                             "' frame mid-session");
      }
    }
    // A peer that vanished before its eof left an unanalyzable partial
    // trace — quiet teardown. After eof the analysis proceeds regardless.
    if (!eof && (c.closed || c.broken)) return;
  }
  const tr::Trace trace = tr::parse_trace(ps.spec, text);
  const core::DfsResult r = core::analyze_parallel(ps.spec, trace, opts);
  send_final(c, core::to_string(r.verdict),
             r.verdict == core::Verdict::Inconclusive
                 ? core::to_string(r.reason)
                 : std::string_view{},
             r.stats);
}

}  // namespace

void run_session(int fd, const SessionContext& ctx) {
  OwnedFd guard(fd);
  Conn c;
  c.fd = fd;
  // Per-session fault-injection scope: TANGO_FAULT_INJECT site@session:<id>
  // targets exactly one session without touching its neighbors.
  core::FaultScope fault_scope("session:" + std::to_string(ctx.session_id));
  try {
    // --- hello phase ---
    std::vector<Frame> frames;
    int waited = 0;
    const int step = 100;
    while (frames.empty() && !c.closed && !c.broken &&
           waited < ctx.config->hello_timeout_ms) {
      pump_socket(c, step, frames);
      waited += step;
      if (draining(ctx)) {
        send_error(c, "server is shutting down");
        return;
      }
    }
    if (frames.empty()) return;  // silent connect: quiet drop
    if (frames.front().type != FrameType::Hello) {
      send_error(c, "first frame must be 'hello'");
      return;
    }
    const Frame hello = frames.front();
    frames.erase(frames.begin());

    const PreparedSpec* ps = ctx.registry->find(hello.spec);
    if (ps == nullptr) {
      send_error(c, "unknown spec '" + hello.spec +
                        "' (the server preloads its specs at startup)");
      return;
    }
    core::Options opts = ctx.config->default_options;
    core::read_options(obs::parse_json(hello.options_json), core::kHello,
                       opts);

    std::unique_ptr<obs::JsonlSink> sink;
    if (!ctx.config->events_dir.empty()) {
      sink = std::make_unique<obs::JsonlSink>(
          ctx.config->events_dir + "/session-" +
          std::to_string(ctx.session_id) + ".jsonl");
      sink->set_refs(hello.spec,
                     "session:" + std::to_string(ctx.session_id));
      opts.sink = sink.get();
    }

    Frame acc;
    acc.type = FrameType::Accepted;
    acc.version = kTangoVersion;
    acc.protocol = kProtocolVersion;
    acc.schema = obs::kEventSchemaVersion;
    acc.session = ctx.session_id;
    if (!send_frame(c, acc)) return;

    // `frames` may still hold chunks/eof that rode the hello's packets;
    // both runners take them as already-pending input.
    if (hello.mode == "static") {
      run_static(c, ctx, *ps, opts, std::move(frames));
    } else {
      run_online(c, ctx, *ps, opts, std::move(frames));
    }
  } catch (const FramingError& e) {
    send_error(c, e.what());
  } catch (const CompileError& e) {
    send_error(c, std::string("analysis error: ") + e.what());
  } catch (const UsageError& e) {
    send_error(c, std::string("analysis error: ") + e.what());
  } catch (const std::exception& e) {
    send_error(c, std::string("internal error: ") + e.what());
  }
  linger_until_peer_closes(c, ctx);
}

}  // namespace tango::srv
