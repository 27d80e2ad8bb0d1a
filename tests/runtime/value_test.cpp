#include "runtime/value.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "estelle/spec.hpp"
#include "runtime/interp.hpp"
#include "runtime/trail.hpp"

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

/// {1, [2, {3}]}: a record holding an array holding a record.
Value nested() {
  return Value::make_record(
      {Value::make_int(1),
       Value::make_array({Value::make_int(2),
                          Value::make_record({Value::make_int(3)})})});
}

TEST(Value, NestedCopiesAreIndependent) {
  Value a = nested();
  Value b = a;
  Value c;
  c = a;
  b.elems()[1].elems()[1].elems()[0] = Value::make_int(30);
  c.elems()[1].elems()[0] = Value::make_int(20);
  a.elems()[0] = Value::make_int(10);
  EXPECT_EQ(a.to_string(), "{10, [2, {3}]}");
  EXPECT_EQ(b.to_string(), "{1, [2, {30}]}");
  EXPECT_EQ(c.to_string(), "{1, [20, {3}]}");
}

TEST(Value, MoveLeavesTheSourceUndefined) {
  Value rec = nested();
  Value moved(std::move(rec));
  EXPECT_TRUE(rec.is_undefined());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(rec.elems().empty());
  EXPECT_EQ(moved.to_string(), "{1, [2, {3}]}");

  Value target = Value::make_int(5);
  Value e = Value::make_enum(nullptr, 2);
  target = std::move(e);
  EXPECT_TRUE(e.is_undefined());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(target.kind(), Value::Kind::Enum);
  target = std::move(moved);
  EXPECT_TRUE(moved.is_undefined());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(target.enum_type(), nullptr);
  EXPECT_EQ(target.to_string(), "{1, [2, {3}]}");
}

TEST(Value, SelfAssignmentKeepsTheValue) {
  Value v = nested();
  Value& alias = v;
  v = alias;
  EXPECT_EQ(v.to_string(), "{1, [2, {3}]}");
  v = std::move(alias);
  EXPECT_EQ(v.to_string(), "{1, [2, {3}]}");
}

TEST(Value, AssigningAnElementToItsAggregate) {
  // The source lives inside the block the assignment frees.
  Value v = nested();
  v = v.elems()[1];
  EXPECT_EQ(v.to_string(), "[2, {3}]");
  v = std::move(v.elems()[1]);
  EXPECT_EQ(v.to_string(), "{3}");
  v = v.elems()[0];
  EXPECT_EQ(v.to_string(), "3");
}

TEST(Value, AggregateHeapWriteUndoneByTheTrailRestoresTheHash) {
  const est::Spec spec = est::compile_spec(R"(
specification s;
channel CH(A, B);
  by A: go(k: integer);
  by B: r(v: integer);
module M systemprocess; ip P: CH(B); end;
body MB for M;
  type
    Cell = record n: integer; xs: array [1 .. 3] of integer; end;
    Ref = ^Cell;
  var p: Ref;
  state z;
  initialize to z begin new(p); p^.n := 1; p^.xs[2] := 5; end;
  trans
    from z to z when P.go name t:
    begin p^.xs[k] := 7; p^.n := k; p^ := p^; end;
end;
end.
)");
  Interp interp(spec);
  MachineState m = make_initial_machine(spec);
  NullSink sink;
  ASSERT_TRUE(interp.run_initializer(m, spec.body().initializers[0], sink));
  const std::uint64_t before = m.hash();
  const std::uint64_t before_cached = m.hash_cached();
  ASSERT_EQ(before, before_cached);

  Trail trail;
  const Trail::Mark mark = trail.mark();
  const Value k = Value::make_int(3);
  ASSERT_TRUE(interp.fire(m, spec.body().transitions[0], {&k, 1}, sink,
                          &trail));
  EXPECT_NE(m.hash(), before);
  trail.undo_to(mark, m);
  EXPECT_EQ(m.hash(), before);
  EXPECT_EQ(m.hash_cached(), before);
  const Value* cell = m.heap.cells().begin()->second.elems().data();
  EXPECT_EQ(cell[0].scalar(), 1);
  EXPECT_EQ(cell[1].to_string(), "[_, 5, _]");
}

}  // namespace
}  // namespace tango::rt
