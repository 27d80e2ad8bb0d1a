#include "runtime/value.hpp"

namespace tango::rt {

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
  out.enum_type_ = enum_type;
  return out;
}

Value Value::make_pointer(std::uint32_t addr) {
  Value out;
  out.kind_ = Kind::Pointer;
  out.scalar_ = addr;
  return out;
}

Value Value::make_record(std::vector<Value> fields) {
  Value out;
  out.kind_ = Kind::Record;
  out.elems_ = std::move(fields);
  return out;
}

Value Value::make_array(std::vector<Value> elems) {
  Value out;
  out.kind_ = Kind::Array;
  out.elems_ = std::move(elems);
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
    mix(elems_.size());
    for (const Value& e : elems_) e.hash_into(h);
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
    case Kind::Enum:
      if (enum_type_ != nullptr && scalar_ >= 0 &&
          scalar_ < static_cast<std::int64_t>(
                        enum_type_->enum_values.size())) {
        return enum_type_->enum_values[static_cast<std::size_t>(scalar_)];
      }
      return "enum#" + std::to_string(scalar_);
    case Kind::Pointer:
      return scalar_ == 0 ? "nil" : "^" + std::to_string(scalar_);
    case Kind::Record: {
      std::string out = "{";
      for (std::size_t i = 0; i < elems_.size(); ++i) {
        if (i != 0) out += ", ";
        out += elems_[i].to_string();
      }
      return out + "}";
    }
    case Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < elems_.size(); ++i) {
        if (i != 0) out += ", ";
        out += elems_[i].to_string();
      }
      return out + "]";
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
  const auto& ae = a.elems();
  const auto& be = b.elems();
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
      std::vector<Value> fields;
      fields.reserve(type->fields.size());
      for (const est::RecordField& f : type->fields) {
        fields.push_back(default_value(f.type));
      }
      return Value::make_record(std::move(fields));
    }
    case TypeKind::Array: {
      std::vector<Value> elems;
      elems.resize(static_cast<std::size_t>(type->hi - type->lo + 1));
      for (Value& e : elems) e = default_value(type->element);
      return Value::make_array(std::move(elems));
    }
    default:
      return Value{};  // undefined scalar
  }
}

}  // namespace tango::rt
