#include "runtime/value.hpp"

#include <cassert>
#include <memory>
#include <new>

namespace tango::rt {

namespace {

/// Raw storage for `n` elements; the caller constructs them.
Value* allocate_block(std::size_t n) {
  if (n == 0) return nullptr;
  return static_cast<Value*>(::operator new(n * sizeof(Value)));
}

}  // namespace

Value* Value::copy_block(std::span<const Value> src) {
  Value* block = allocate_block(src.size());
  try {
    std::uninitialized_copy(src.begin(), src.end(), block);
  } catch (...) {
    ::operator delete(block);
    throw;
  }
  return block;
}

void Value::free_block() {
  std::destroy_n(ptr_.elems, static_cast<std::size_t>(scalar_));
  ::operator delete(ptr_.elems);
}

Value Value::make_int(std::int64_t v) {
  Value out;
  out.kind_ = Kind::Int;
  out.scalar_ = v;
  return out;
}

Value Value::make_bool(bool v) {
  Value out;
  out.kind_ = Kind::Bool;
  out.scalar_ = v ? 1 : 0;
  return out;
}

Value Value::make_char(char v) {
  Value out;
  out.kind_ = Kind::Char;
  out.scalar_ = static_cast<unsigned char>(v);
  return out;
}

Value Value::make_enum(const est::Type* enum_type, std::int64_t ordinal) {
  Value out;
  out.kind_ = Kind::Enum;
  out.scalar_ = ordinal;
  out.ptr_.enum_type = enum_type;
  return out;
}

Value Value::make_pointer(std::uint32_t addr) {
  Value out;
  out.kind_ = Kind::Pointer;
  out.scalar_ = addr;
  return out;
}

Value Value::make_aggregate(Kind kind, std::size_t n) {
  assert(kind == Kind::Record || kind == Kind::Array);
  Value out;
  out.ptr_.elems = allocate_block(n);
  std::uninitialized_value_construct_n(out.ptr_.elems, n);
  out.kind_ = kind;
  out.scalar_ = static_cast<std::int64_t>(n);
  return out;
}

Value Value::make_record(std::vector<Value> fields) {
  Value out = make_aggregate(Kind::Record, fields.size());
  std::move(fields.begin(), fields.end(), out.ptr_.elems);
  return out;
}

Value Value::make_array(std::vector<Value> elems) {
  Value out = make_aggregate(Kind::Array, elems.size());
  std::move(elems.begin(), elems.end(), out.ptr_.elems);
  return out;
}

void Value::hash_into(std::uint64_t& h) const {
  auto mix = [&h](std::uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(kind_));
  if (is_scalar()) {
    mix(static_cast<std::uint64_t>(scalar_));
  } else {
    mix(elems().size());
    for (const Value& e : elems()) e.hash_into(h);
  }
}

std::string Value::to_string() const {
  switch (kind_) {
    case Kind::Undefined:
      return "_";
    case Kind::Int:
      return std::to_string(scalar_);
    case Kind::Bool:
      return scalar_ != 0 ? "true" : "false";
    case Kind::Char:
      if (scalar_ == '\'') return "''''";  // doubled, as in a Pascal literal
      return std::string("'") + static_cast<char>(scalar_) + "'";
    case Kind::Enum: {
      const est::Type* type = ptr_.enum_type;
      if (type != nullptr && scalar_ >= 0 &&
          scalar_ < static_cast<std::int64_t>(type->enum_values.size())) {
        return type->enum_values[static_cast<std::size_t>(scalar_)];
      }
      return "enum#" + std::to_string(scalar_);
    }
    case Kind::Pointer:
      return scalar_ == 0 ? "nil" : "^" + std::to_string(scalar_);
    case Kind::Record:
    case Kind::Array: {
      const bool rec = kind_ == Kind::Record;
      std::string out = rec ? "{" : "[";
      const std::span<const Value> es = elems();
      for (std::size_t i = 0; i < es.size(); ++i) {
        if (i != 0) out += ", ";
        out += es[i].to_string();
      }
      return out + (rec ? "}" : "]");
    }
  }
  return "?";
}

bool equals(const Value& a, const Value& b, bool undefined_wildcard) {
  if (undefined_wildcard && (a.is_undefined() || b.is_undefined())) {
    return true;
  }
  if (a.kind() != b.kind()) return false;
  if (a.is_scalar()) return a.scalar() == b.scalar();
  const std::span<const Value> ae = a.elems();
  const std::span<const Value> be = b.elems();
  if (ae.size() != be.size()) return false;
  for (std::size_t i = 0; i < ae.size(); ++i) {
    if (!equals(ae[i], be[i], undefined_wildcard)) return false;
  }
  return true;
}

bool contains_undefined(const Value& v) {
  if (v.is_undefined()) return true;
  if (v.is_scalar()) return false;
  for (const Value& e : v.elems()) {
    if (contains_undefined(e)) return true;
  }
  return false;
}

Value default_value(const est::Type* type) {
  using est::TypeKind;
  if (type == nullptr) return Value{};
  switch (type->kind) {
    case TypeKind::Record: {
      Value out =
          Value::make_aggregate(Value::Kind::Record, type->fields.size());
      const std::span<Value> fields = out.elems();
      for (std::size_t i = 0; i < fields.size(); ++i) {
        fields[i] = default_value(type->fields[i].type);
      }
      return out;
    }
    case TypeKind::Array: {
      Value out = Value::make_aggregate(
          Value::Kind::Array, static_cast<std::size_t>(type->hi - type->lo + 1));
      for (Value& e : out.elems()) e = default_value(type->element);
      return out;
    }
    default:
      return Value{};  // undefined scalar
  }
}

}  // namespace tango::rt
