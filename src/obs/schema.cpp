#include "obs/schema.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <type_traits>

namespace tango::obs {

namespace {

using enum FieldType;
using enum Presence;

constexpr std::string_view kEngines[] = {"dfs", "mdfs", "par", "batch"};
constexpr std::string_view kVerdicts[] = {
    "valid", "invalid", "inconclusive", "valid so far", "likely invalid"};
constexpr std::string_view kReasons[] = {"transitions", "depth", "deadline",
                                         "memory", "shutdown"};

constexpr Field kId{"id", Int, Required, &Event::id, 1};
constexpr Field kParent{"parent", Int, Required, &Event::parent, 0};
constexpr Field kWorker{"worker", Int, Required, &Event::worker, -1};
constexpr Field kDepth{"depth", Int, Required, &Event::depth, 0};
constexpr Field kTransition{"transition", Int, Required, &Event::transition,
                            0};
constexpr Field kCount{"count", Int, Required, &Event::count, 0};
constexpr Field kOk{"ok", Bool, Required, &Event::ok};
constexpr Field kAllDone{"all_done", Bool, IfOk, &Event::all_done};
constexpr Field kNewHash{"state_hash", Hash, IfOk, &Event::state_hash};

constexpr Field kRun[] = {
    {"version", Int, Required, &Event::version},
    {"engine", Str, Required, &Event::engine, kNoMinimum, kEngines},
    {"spec", Str, Required, &Event::spec},
    {"spec_ref", Str, Required, &Event::spec_ref},
    {"trace_ref", Str, Required, &Event::trace_ref},
    {"order", Str, Required, &Event::order},
    {"flags", Obj, Required, &Event::flags},
};
constexpr Field kEnter[] = {
    kId,
    kWorker,
    {"init", Int, Required, &Event::init},
    {"start_state", Int, Required, &Event::start_state},
    {"applied", Bool, Required, &Event::applied},
    kOk,
    kAllDone,
    kNewHash,
};
constexpr Field kFire[] = {
    kId,
    kParent,
    kWorker,
    kDepth,
    kTransition,
    {"input_event", Int, Required, &Event::input_event, -1},
    {"synthesized", Bool, NonDefault, &Event::synthesized},
    kOk,
    {"retry", Bool, NonDefault, &Event::retry},
    kAllDone,
    kNewHash,
};
constexpr Field kNode[] = {kParent, kWorker, kDepth};
constexpr Field kPruneVisited[] = {
    kParent, kWorker, kDepth,
    {"state_hash", Hash, Required, &Event::state_hash}};
constexpr Field kCounted[] = {kParent, kWorker, kDepth, kCount};
constexpr Field kEvict[] = {kWorker, kCount};
constexpr Field kVerdict[] = {
    kParent,
    {"verdict", Str, Required, &Event::verdict, kNoMinimum, kVerdicts},
    {"reason", Str, NonDefault, &Event::reason, kNoMinimum, kReasons},
    {"stats", Obj, Required, &Event::stats_json},
};

/// Indexed by EventKind.
constexpr std::span<const Field> kTable[] = {
    kRun,          // run
    kEnter,        // enter
    kFire,         // fire
    kNode,         // backtrack
    kPruneVisited,  // prune.visited
    kCounted,      // prune.shadow
    kCounted,      // checkpoint.save
    kCounted,      // checkpoint.restore
    kNode,         // steal
    kEvict,        // evict
    kVerdict,      // verdict
};
static_assert(std::size(kTable) ==
              static_cast<std::size_t>(EventKind::Verdict) + 1);

template <class T>
constexpr bool kIsInt = std::is_integral_v<T> && !std::is_same_v<T, bool>;

/// The member of `e` a row names; const when `e` is.
template <class T, class E>
auto& at(E& e, const Member& m) {
  return e.*std::get<T Event::*>(m);
}

bool written(const Field& f, const Event& e) {
  static const Event kDefaults;
  switch (f.presence) {
    case Required: return true;
    case IfOk: return e.ok;
    case NonDefault:
      return std::visit([&](auto p) { return e.*p != kDefaults.*p; },
                        f.member);
  }
  return true;
}

void write_value(std::string& out, const Field& f, const Event& e) {
  char buf[24];
  switch (f.type) {
    case Int:
      std::visit(
          [&](auto p) {
            if constexpr (kIsInt<std::remove_cvref_t<decltype(e.*p)>>) {
              out.append(buf, std::to_chars(buf, buf + sizeof buf, e.*p).ptr);
            }
          },
          f.member);
      return;
    case Bool:
      out += at<bool>(e, f.member) ? "true" : "false";
      return;
    case Str:
      // Shared UTF-8-validating escaper: every JSONL line is valid UTF-8
      // even when a spec name or note carries arbitrary bytes.
      escape_json_into(out, at<std::string>(e, f.member));
      return;
    case Hash:
      std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"",
                    at<std::uint64_t>(e, f.member));
      out += buf;
      return;
    case Obj: {
      const std::string& json = at<std::string>(e, f.member);
      out += json.empty() ? "{}" : json;
      return;
    }
  }
}

bool is_hash(const JsonValue& v) {
  return v.is_string() && v.string.size() == 16 &&
         std::all_of(v.string.begin(), v.string.end(), [](char c) {
           return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
         });
}

/// Stores `v` into the row's member; returns what is wrong with it, or ""
/// when it fits the row.
std::string read_value(const Field& f, const JsonValue& v, Event& e) {
  switch (f.type) {
    case Int:
      if (!v.is_number() || !v.is_integer) return "is not an integer";
      if (v.integer < f.minimum) {
        return "is below its minimum " + std::to_string(f.minimum);
      }
      std::visit(
          [&](auto p) {
            using T = std::remove_cvref_t<decltype(e.*p)>;
            if constexpr (kIsInt<T>) e.*p = static_cast<T>(v.integer);
          },
          f.member);
      return "";
    case Bool:
      if (!v.is_bool()) return "is not a boolean";
      at<bool>(e, f.member) = v.boolean;
      return "";
    case Str:
      if (!v.is_string()) return "is not a string";
      if (!f.one_of.empty() &&
          std::find(f.one_of.begin(), f.one_of.end(), v.string) ==
              f.one_of.end()) {
        std::string allowed;
        for (std::string_view s : f.one_of) {
          allowed += allowed.empty() ? "" : " | ";
          allowed += s;
        }
        return "is '" + v.string + "', not one of " + allowed;
      }
      at<std::string>(e, f.member) = v.string;
      return "";
    case Hash:
      if (!is_hash(v)) return "is not 16 lowercase hex digits";
      std::from_chars(v.string.data(), v.string.data() + 16,
                      at<std::uint64_t>(e, f.member), 16);
      return "";
    case Obj:
      if (!v.is_object()) return "is not an object";
      // Canonical form makes later comparisons field-order-insensitive.
      at<std::string>(e, f.member) = canonical(v);
      return "";
  }
  return "";
}

}  // namespace

bool parse_kind(std::string_view name, EventKind& out) {
  for (int k = 0; k <= static_cast<int>(EventKind::Verdict); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (to_string(kind) == name) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::span<const Field> fields(EventKind kind) {
  return kTable[static_cast<std::size_t>(kind)];
}

std::string to_jsonl(const Event& e) {
  std::string out;
  out.reserve(160);
  out += "{\"kind\":\"";
  out += to_string(e.kind);
  out += '"';
  for (const Field& f : fields(e.kind)) {
    if (!written(f, e)) continue;
    out += ",\"";
    out += f.key;
    out += "\":";
    write_value(out, f, e);
  }
  out += '}';
  return out;
}

bool decode_event(const JsonValue& v, std::size_t line, Event& out,
                  std::vector<ReadError>& errors) {
  if (!v.is_object()) {
    errors.push_back({line, "event is not a JSON object"});
    return false;
  }
  const JsonValue* kind = v.find("kind");
  if (kind == nullptr || !kind->is_string()) {
    errors.push_back({line, "missing string field 'kind'"});
    return false;
  }
  out = Event{};
  if (!parse_kind(kind->string, out.kind)) {
    errors.push_back({line, "unknown event kind '" + kind->string + "'"});
    return false;
  }
  auto fail = [&](std::string_view key, std::string_view what) {
    errors.push_back({line, kind->string + ": field '" + std::string(key) +
                                "' " + std::string(what)});
  };
  const std::span<const Field> rows = fields(out.kind);
  const JsonValue* ok = v.find("ok");
  const bool is_ok = ok != nullptr && ok->is_bool() && ok->boolean;
  for (const Field& f : rows) {
    const JsonValue* value = v.find(f.key);
    const bool wanted = f.presence == Required || (f.presence == IfOk && is_ok);
    if (value == nullptr) {
      if (wanted) fail(f.key, "is missing");
    } else if (f.presence == IfOk && !is_ok) {
      fail(f.key, "is present on a vetoed event");
    } else if (const std::string what = read_value(f, *value, out);
               !what.empty()) {
      fail(f.key, what);
    }
  }
  // Strict about unknown keys: a typo'd field name fails the check rather
  // than silently riding along. A repeated key is an error too: JSON
  // readers disagree on which copy counts.
  for (const auto& [key, value] : v.object) {
    if (key != "kind" && std::none_of(rows.begin(), rows.end(),
                                      [&](const Field& f) {
                                        return f.key == key;
                                      })) {
      fail(key, "is not a field of this kind");
    } else if (v.find(key) != &value) {
      fail(key, "appears twice");
    }
  }
  return true;
}

}  // namespace tango::obs
