// The search-event wire format as data (docs/EVENTS.md). One table lists,
// per event kind and in wire order, every key a line may carry: its type,
// when it is present, the Event member it carries and the constraints
// docs/schema/search_events.schema.json states for it. The JSONL writer
// (to_jsonl) and the reader (decode_event, read_events in obs/stream.hpp)
// are generic over these rows, so adding a field takes one row; the
// `obs` test EventSchemaDoc.* checks the published JSON Schema against
// the same rows, so a line the reader accepts also validates there.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/event.hpp"
#include "obs/json.hpp"

namespace tango::obs {

enum class FieldType : std::uint8_t {
  Int,   // JSON integer
  Bool,  // JSON boolean
  Str,   // JSON string
  Hash,  // 64-bit value as a string of 16 lowercase hex digits
  Obj,   // JSON object, carried verbatim (canonicalized on read)
};

enum class Presence : std::uint8_t {
  Required,    // always written, must be present
  NonDefault,  // written only when the member differs from Event{}'s
  IfOk,        // present exactly when the event's `ok` is true
};

/// The Event member a row reads and writes.
using Member =
    std::variant<std::uint64_t Event::*, std::uint32_t Event::*,
                 std::int32_t Event::*, bool Event::*, std::string Event::*>;

inline constexpr std::int64_t kNoMinimum =
    std::numeric_limits<std::int64_t>::min();

struct Field {
  std::string_view key;
  FieldType type;
  Presence presence;
  Member member;
  std::int64_t minimum = kNoMinimum;  // Int: smallest legal value
  std::span<const std::string_view> one_of = {};  // Str: legal; {} = any
};

/// The rows of `kind` in wire order; every line also starts with "kind".
[[nodiscard]] std::span<const Field> fields(EventKind kind);

/// Serializes one event as a single JSONL line (no trailing newline):
/// `kind`, then each row of its kind whose presence rule holds.
[[nodiscard]] std::string to_jsonl(const Event& e);

/// One problem in a stream, tied to a 1-based JSONL line number (0 for
/// the stream as a whole).
struct ReadError {
  std::size_t line = 0;
  std::string message;
};

/// Decodes one parsed line into `out` by its kind's rows, appending one
/// error per broken rule: a missing or unknown key, a wrong type, a value
/// outside the row's constraints. Returns false when the line is not an
/// object of a known kind (`out` is then unusable); otherwise true, with
/// any broken field left at its Event default.
bool decode_event(const JsonValue& v, std::size_t line, Event& out,
                  std::vector<ReadError>& errors);

}  // namespace tango::obs
