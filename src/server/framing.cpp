#include "server/framing.hpp"

#include <cstring>

#include "core/option_table.hpp"
#include "obs/json.hpp"

namespace tango::srv {

namespace {

void append_str(std::string& out, const char* key, std::string_view v) {
  out += ",\"";
  out += key;
  out += "\":";
  obs::escape_json_into(out, v);
}

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_bool(std::string& out, const char* key, bool v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += v ? "true" : "false";
}

[[noreturn]] void bad(const std::string& what) { throw FramingError(what); }

std::string require_string(const obs::JsonValue& v, const char* key,
                           const char* frame) {
  const obs::JsonValue* m = v.find(key);
  if (m == nullptr || !m->is_string()) {
    bad(std::string(frame) + " frame: missing string member '" + key + "'");
  }
  return m->string;
}

std::string opt_string(const obs::JsonValue& v, const char* key,
                       std::string fallback = "") {
  const obs::JsonValue* m = v.find(key);
  if (m == nullptr) return fallback;
  if (!m->is_string()) bad(std::string("member '") + key + "' must be a string");
  return m->string;
}

std::uint64_t opt_u64(const obs::JsonValue& v, const char* key) {
  const obs::JsonValue* m = v.find(key);
  if (m == nullptr) return 0;
  if (!m->is_number() || !m->is_integer || m->integer < 0) {
    bad(std::string("member '") + key + "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(m->integer);
}

}  // namespace

std::string serialize(const Frame& f) {
  std::string out = "{\"type\":\"";
  out += to_string(f.type);
  out += '"';
  switch (f.type) {
    case FrameType::Hello:
      append_str(out, "spec", f.spec);
      append_str(out, "mode", f.mode);
      if (!f.version.empty()) append_str(out, "version", f.version);
      if (f.options_json.size() > 2) {  // splice the members in
        out += ',';
        out.append(f.options_json, 1, f.options_json.size() - 2);
      }
      break;
    case FrameType::Chunk:
      append_str(out, "text", f.text);
      break;
    case FrameType::Eof:
    case FrameType::Cancel:
      break;
    case FrameType::Accepted:
      append_str(out, "version", f.version);
      append_u64(out, "protocol", f.protocol);
      append_u64(out, "schema", f.schema);
      append_u64(out, "session", f.session);
      break;
    case FrameType::Verdict:
      append_str(out, "status", f.status);
      append_bool(out, "final", f.final_verdict);
      if (!f.reason.empty()) append_str(out, "reason", f.reason);
      break;
    case FrameType::Stats:
      out += ",\"stats\":";
      out += f.stats_json.empty() ? "{}" : f.stats_json;
      break;
    case FrameType::Overloaded:
    case FrameType::Error:
      append_str(out, "message", f.message);
      break;
  }
  out += '}';
  return out;
}

std::string encode(std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    bad("frame payload exceeds " + std::to_string(kMaxFramePayload) + " bytes");
  }
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out.push_back(static_cast<char>((n >> 24) & 0xFF));
  out.push_back(static_cast<char>((n >> 16) & 0xFF));
  out.push_back(static_cast<char>((n >> 8) & 0xFF));
  out.push_back(static_cast<char>(n & 0xFF));
  out.append(payload);
  return out;
}

std::string encode_frame(const Frame& f) { return encode(serialize(f)); }

Frame parse_frame(std::string_view payload) {
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(payload);
  } catch (const std::exception& e) {
    bad(std::string("malformed frame JSON: ") + e.what());
  }
  if (!doc.is_object()) bad("frame must be a JSON object");

  const std::string type = require_string(doc, "type", "any");
  Frame f;
  if (type == "hello") {
    f.type = FrameType::Hello;
    f.spec = require_string(doc, "spec", "hello");
    f.mode = opt_string(doc, "mode", "online");
    if (f.mode != "online" && f.mode != "static") {
      bad("hello frame: mode must be 'online' or 'static'");
    }
    f.version = opt_string(doc, "version");
    core::Options scratch;  // validates the option members
    try {
      core::read_options(doc, core::kHello, scratch);
    } catch (const std::exception& e) {
      bad(std::string("hello frame: ") + e.what());
    }
    f.options_json = obs::canonical(doc, {"type", "spec", "mode", "version"});
  } else if (type == "chunk") {
    f.type = FrameType::Chunk;
    f.text = require_string(doc, "text", "chunk");
  } else if (type == "eof") {
    f.type = FrameType::Eof;
  } else if (type == "cancel") {
    f.type = FrameType::Cancel;
  } else if (type == "accepted") {
    f.type = FrameType::Accepted;
    f.version = opt_string(doc, "version");
    f.protocol = static_cast<std::uint32_t>(opt_u64(doc, "protocol"));
    f.schema = static_cast<std::uint32_t>(opt_u64(doc, "schema"));
    f.session = opt_u64(doc, "session");
  } else if (type == "verdict") {
    f.type = FrameType::Verdict;
    f.status = require_string(doc, "status", "verdict");
    const obs::JsonValue* fin = doc.find("final");
    if (fin == nullptr || !fin->is_bool()) {
      bad("verdict frame: missing boolean member 'final'");
    }
    f.final_verdict = fin->boolean;
    f.reason = opt_string(doc, "reason");
  } else if (type == "stats") {
    f.type = FrameType::Stats;
    const obs::JsonValue* stats = doc.find("stats");
    if (stats == nullptr || !stats->is_object()) {
      bad("stats frame: missing object member 'stats'");
    }
    f.stats_json = obs::canonical(*stats);
  } else if (type == "overloaded") {
    f.type = FrameType::Overloaded;
    f.message = opt_string(doc, "message");
  } else if (type == "error") {
    f.type = FrameType::Error;
    f.message = require_string(doc, "message", "error");
  } else {
    bad("unknown frame type '" + type + "'");
  }
  return f;
}

bool FrameDecoder::next(std::string& payload) {
  if (buf_.size() < 4) return false;
  const auto b = [this](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[i]));
  };
  const std::uint32_t n = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
  if (n == 0) bad("zero-length frame");
  if (n > kMaxFramePayload) {
    bad("frame length " + std::to_string(n) + " exceeds " +
        std::to_string(kMaxFramePayload));
  }
  if (buf_.size() < 4 + static_cast<std::size_t>(n)) return false;
  payload.assign(buf_, 4, n);
  buf_.erase(0, 4 + static_cast<std::size_t>(n));
  return true;
}

}  // namespace tango::srv
