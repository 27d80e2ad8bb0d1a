// Wire protocol of `tango serve` / `tango submit` (docs/SERVER.md): a TCP
// byte stream carrying length-prefixed JSON frames. Each frame is a 4-byte
// big-endian payload length followed by exactly that many bytes of UTF-8
// JSON; the object's "type" member selects the frame kind.
//
//   client -> server:  hello, chunk, eof, cancel
//   server -> client:  accepted, overloaded, verdict, stats, error
//
// The framing layer is deliberately transport-agnostic (feed it bytes from
// anywhere) and strict: zero-length and oversized frames, malformed JSON,
// unknown types and missing required members are all FramingError — a
// server must be able to chew on hostile bytes without dying.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tango::srv {

/// Version of the frame vocabulary. The server reports it in `accepted`;
/// bump on any frame/member rename, removal, or semantic change.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Upper bound on one frame's payload. Large enough for any realistic
/// trace chunk, small enough that a hostile length prefix cannot make the
/// server allocate the moon.
inline constexpr std::uint32_t kMaxFramePayload = 16u * 1024 * 1024;

class FramingError : public std::runtime_error {
 public:
  explicit FramingError(const std::string& what) : std::runtime_error(what) {}
};

enum class FrameType : std::uint8_t {
  Hello,       // c->s: spec ref + analysis options; must be the first frame
  Chunk,       // c->s: raw trace text (may split an event line anywhere)
  Eof,         // c->s: end of trace (§3.1.2 conclusive-verdict marker)
  Cancel,      // c->s: stop analyzing; session concludes reason "shutdown"
  Accepted,    // s->c: session open (version/schema/protocol/session id)
  Overloaded,  // s->c: accept queue full; retry later (backpressure)
  Verdict,     // s->c: interim (final=false) or final assessment
  Stats,       // s->c: final Stats::to_json, after the final verdict
  Error,       // s->c: structured failure (bad spec, bad frame, fault)
};

[[nodiscard]] constexpr std::string_view to_string(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "hello";
    case FrameType::Chunk: return "chunk";
    case FrameType::Eof: return "eof";
    case FrameType::Cancel: return "cancel";
    case FrameType::Accepted: return "accepted";
    case FrameType::Overloaded: return "overloaded";
    case FrameType::Verdict: return "verdict";
    case FrameType::Stats: return "stats";
    case FrameType::Error: return "error";
  }
  return "?";
}

/// One decoded frame: a flat bag of members, the meaningful subset
/// depending on `type` (serialize writes only those; parse_frame validates
/// required ones). Mirrors the obs::Event design.
struct Frame {
  FrameType type = FrameType::Error;

  // hello
  std::string spec;           // registry ref: "builtin:abp" or preloaded path
  std::string mode = "online";  // online (MDFS) | static (DFS/ParDfs at eof)
  std::string version;        // client build, informational
  /// The other members, the analysis options (core/option_table.hpp), as
  /// a JSON object.
  std::string options_json = "{}";

  // chunk
  std::string text;

  // accepted
  std::uint32_t protocol = 0;   // kProtocolVersion
  std::uint32_t schema = 0;     // obs::kEventSchemaVersion
  std::uint64_t session = 0;    // server-assigned session id (1-based)
  // (accepted reuses `version` for the server build string)

  // verdict
  std::string status;  // core::to_string(Verdict) / to_string(OnlineStatus)
  bool final_verdict = false;
  std::string reason;  // InconclusiveReason token, "" when conclusive

  // stats
  std::string stats_json;  // raw Stats::to_json object

  // error / overloaded
  std::string message;
};

/// Serializes the payload JSON (no length prefix).
[[nodiscard]] std::string serialize(const Frame& f);

/// Length-prefixes a payload for the wire.
[[nodiscard]] std::string encode(std::string_view payload);

/// serialize + encode.
[[nodiscard]] std::string encode_frame(const Frame& f);

/// Parses and validates one payload. Throws FramingError on malformed
/// JSON, unknown type, or missing/ill-typed required members.
[[nodiscard]] Frame parse_frame(std::string_view payload);

/// Incremental frame extractor over an arbitrary byte feed. Throws
/// FramingError from next() when the buffered prefix cannot be a frame
/// (zero or oversized length); after a throw the decoder is poisoned and
/// the connection should be dropped.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }

  /// Extracts the next complete payload into `payload`; false when more
  /// bytes are needed.
  bool next(std::string& payload);

  /// Bytes buffered but not yet returned (diagnostics).
  [[nodiscard]] std::size_t pending() const { return buf_.size(); }

 private:
  std::string buf_;
};

}  // namespace tango::srv
