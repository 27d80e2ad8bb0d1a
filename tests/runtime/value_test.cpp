#include "runtime/value.hpp"

#include <gtest/gtest.h>

#include "estelle/spec.hpp"

namespace tango::rt {
namespace {

TEST(Value, DefaultConstructedIsUndefined) {
  Value v;
  EXPECT_TRUE(v.is_undefined());
  EXPECT_TRUE(v.is_scalar());
  EXPECT_EQ(v.to_string(), "_");
}

TEST(Value, ScalarConstructors) {
  EXPECT_EQ(Value::make_int(-7).scalar(), -7);
  EXPECT_EQ(Value::make_bool(true).to_string(), "true");
  EXPECT_EQ(Value::make_char('q').to_string(), "'q'");
  EXPECT_EQ(Value::make_char('\'').to_string(), "''''");
  EXPECT_EQ(Value::nil().to_string(), "nil");
  EXPECT_EQ(Value::make_pointer(3).to_string(), "^3");
}

TEST(Value, EnumPrintsLiteralName) {
  est::TypeArena arena;
  est::Type* color = arena.make(est::TypeKind::Enum);
  color->enum_values = {"red", "green", "blue"};
  EXPECT_EQ(Value::make_enum(color, 1).to_string(), "green");
  EXPECT_EQ(Value::make_enum(color, 7).to_string(), "enum#7");
}

TEST(Value, StructuredToString) {
  Value rec = Value::make_record(
      {Value::make_int(1), Value::make_bool(false)});
  EXPECT_EQ(rec.to_string(), "{1, false}");
  Value arr = Value::make_array({Value::make_int(4), Value{}});
  EXPECT_EQ(arr.to_string(), "[4, _]");
}

TEST(Value, StrictEqualityDeep) {
  Value a = Value::make_record({Value::make_int(1), Value::make_int(2)});
  Value b = Value::make_record({Value::make_int(1), Value::make_int(2)});
  Value c = Value::make_record({Value::make_int(1), Value::make_int(3)});
  EXPECT_TRUE(equals(a, b, false));
  EXPECT_FALSE(equals(a, c, false));
}

TEST(Value, UndefinedEqualsOnlyUndefinedInStrictMode) {
  EXPECT_TRUE(equals(Value{}, Value{}, false));
  EXPECT_FALSE(equals(Value{}, Value::make_int(0), false));
}

TEST(Value, UndefinedIsWildcardInPartialMode) {
  // Paper §5.1: parameters with undefined values are "equal" to all values.
  EXPECT_TRUE(equals(Value{}, Value::make_int(42), true));
  EXPECT_TRUE(equals(Value::make_int(42), Value{}, true));
  Value rec_u = Value::make_record({Value{}, Value::make_int(2)});
  Value rec_d = Value::make_record({Value::make_int(9), Value::make_int(2)});
  EXPECT_TRUE(equals(rec_u, rec_d, true));
  EXPECT_FALSE(equals(rec_u, rec_d, false));
}

TEST(Value, KindMismatchNeverEqual) {
  EXPECT_FALSE(equals(Value::make_int(1), Value::make_bool(true), false));
}

TEST(Value, ContainsUndefined) {
  EXPECT_TRUE(contains_undefined(Value{}));
  EXPECT_FALSE(contains_undefined(Value::make_int(1)));
  Value nested = Value::make_array(
      {Value::make_record({Value::make_int(1), Value{}})});
  EXPECT_TRUE(contains_undefined(nested));
}

TEST(Value, DefaultValueBuildsStructure) {
  est::TypeArena arena;
  est::Type* rec = arena.make(est::TypeKind::Record);
  rec->fields.push_back({"a", arena.integer()});
  rec->fields.push_back({"b", arena.boolean()});
  est::Type* arr = arena.make(est::TypeKind::Array);
  arr->lo = 1;
  arr->hi = 3;
  arr->element = rec;

  Value v = default_value(arr);
  ASSERT_EQ(v.kind(), Value::Kind::Array);
  ASSERT_EQ(v.elems().size(), 3u);
  ASSERT_EQ(v.elems()[0].kind(), Value::Kind::Record);
  EXPECT_TRUE(v.elems()[0].elems()[0].is_undefined());
}

TEST(Value, HashDistinguishesValues) {
  std::uint64_t h1 = 0, h2 = 0, h3 = 0;
  Value::make_int(1).hash_into(h1);
  Value::make_int(2).hash_into(h2);
  Value::make_int(1).hash_into(h3);
  EXPECT_NE(h1, h2);
  EXPECT_EQ(h1, h3);
}

TEST(Value, HashDistinguishesStructure) {
  std::uint64_t flat = 0, nested = 0;
  Value::make_array({Value::make_int(1), Value::make_int(2)})
      .hash_into(flat);
  Value::make_array({Value::make_array({Value::make_int(1)}),
                     Value::make_int(2)})
      .hash_into(nested);
  EXPECT_NE(flat, nested);
}

}  // namespace
}  // namespace tango::rt
