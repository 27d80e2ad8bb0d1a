// Runtime values for the EFSM interpreter. Every Estelle variable is a
// Value tree; scalar leaves may be *undefined*, which is the cornerstone of
// partial-trace analysis (paper §5.1): constructors initialize the
// undefined attribute, assignment clears it, and comparisons against an
// undefined value succeed when the analyzer runs in partial mode.
//
// A Value is 24 bytes: its kind, a 64-bit payload and one pointer. A
// scalar keeps everything inline (the pointer is the enum type, null for
// other kinds), so copying it is a plain copy. A record or array owns one
// heap block of its elements and keeps their count in the payload, so
// copying it is one allocation per aggregate level. A moved-from Value is
// undefined.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "estelle/types.hpp"

namespace tango::rt {

class Value {
 public:
  enum class Kind : std::uint8_t {
    Undefined,
    Int,
    Bool,
    Char,
    Enum,
    Pointer,  // scalar payload = heap address; 0 is nil
    Record,
    Array,
  };

  Value() = default;  // undefined
  Value(const Value& other)
      : kind_(other.kind_), scalar_(other.scalar_), ptr_(other.ptr_) {
    if (!is_scalar()) ptr_.elems = copy_block(other.elems());
  }
  Value(Value&& other) noexcept
      : kind_(other.kind_), scalar_(other.scalar_), ptr_(other.ptr_) {
    other.kind_ = Kind::Undefined;
    other.scalar_ = 0;
    other.ptr_.enum_type = nullptr;
  }
  /// Both assignments are safe when `other` lives inside this value (an
  /// element of it, at any depth) and on self-assignment.
  Value& operator=(const Value& other) {
    Value copy(other);  // before this value's block goes
    return *this = std::move(copy);
  }
  Value& operator=(Value&& other) noexcept {
    Value taken(std::move(other));
    std::swap(kind_, taken.kind_);
    std::swap(scalar_, taken.scalar_);
    std::swap(ptr_, taken.ptr_);
    return *this;  // `taken` frees what this value held
  }
  ~Value() {
    if (!is_scalar()) free_block();
  }

  static Value make_int(std::int64_t v);
  static Value make_bool(bool v);
  static Value make_char(char v);
  static Value make_enum(const est::Type* enum_type, std::int64_t ordinal);
  static Value make_pointer(std::uint32_t addr);
  static Value nil() { return make_pointer(0); }
  static Value make_record(std::vector<Value> fields);
  static Value make_array(std::vector<Value> elems);
  /// A record or array (`kind`) of `n` undefined elements, to be filled in
  /// place through elems(): builds an aggregate with no staging vector.
  static Value make_aggregate(Kind kind, std::size_t n);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_undefined() const { return kind_ == Kind::Undefined; }
  [[nodiscard]] bool is_scalar() const {
    return kind_ != Kind::Record && kind_ != Kind::Array;
  }

  /// Raw payload of a defined scalar (int value, bool 0/1, char code,
  /// enum ordinal, pointer address).
  [[nodiscard]] std::int64_t scalar() const { return scalar_; }
  [[nodiscard]] bool as_bool() const { return scalar_ != 0; }
  [[nodiscard]] std::uint32_t address() const {
    return static_cast<std::uint32_t>(scalar_);
  }
  [[nodiscard]] const est::Type* enum_type() const {
    return is_scalar() ? ptr_.enum_type : nullptr;
  }

  /// The fields of a record or elements of an array; empty for a scalar.
  [[nodiscard]] std::span<Value> elems() {
    if (is_scalar()) return {};
    return {ptr_.elems, static_cast<std::size_t>(scalar_)};
  }
  [[nodiscard]] std::span<const Value> elems() const {
    if (is_scalar()) return {};
    return {ptr_.elems, static_cast<std::size_t>(scalar_)};
  }

  /// Mixes this value (structure and payload) into `h` (FNV-1a style).
  void hash_into(std::uint64_t& h) const;

  /// Renders for trace files and diagnostics: `42`, `true`, `'c'`,
  /// enum literal name, `nil`, `^3`, `{a, b}` for records, `[x, y]` for
  /// arrays, `_` for undefined.
  [[nodiscard]] std::string to_string() const;

 private:
  /// The enum type of a scalar, or the element block of an aggregate.
  union Ptr {
    const est::Type* enum_type = nullptr;
    Value* elems;
  };

  /// A new block holding copies of `src`.
  static Value* copy_block(std::span<const Value> src);
  /// Destroys the elements and frees the block of an aggregate.
  void free_block();

  Kind kind_ = Kind::Undefined;
  std::int64_t scalar_ = 0;  // aggregates: the element count
  Ptr ptr_ = {};
};

static_assert(sizeof(Value) == 24);

/// Deep structural equality. When `undefined_wildcard` is set (partial-trace
/// mode), an undefined value on either side matches anything (paper §5.1).
/// Otherwise undefined equals only undefined.
[[nodiscard]] bool equals(const Value& a, const Value& b,
                          bool undefined_wildcard);

/// True if the value or any nested element is undefined.
[[nodiscard]] bool contains_undefined(const Value& v);

/// Default (freshly declared) value of a type: undefined scalars; records
/// and arrays get their structure with undefined leaves.
[[nodiscard]] Value default_value(const est::Type* type);

}  // namespace tango::rt
