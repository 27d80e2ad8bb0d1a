// Unit tests for the undo-log checkpointing primitive: undo_to must leave
// the MachineState bit-identical (fsm ordinal, variables, heap contents
// AND allocation cursor) to what a deep copy taken at the mark would
// restore — the copy is the differential oracle throughout.
#include "runtime/trail.hpp"

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "runtime/machine.hpp"

namespace tango::rt {
namespace {

using Root = Trail::Root;

bool same_machine(const MachineState& a, const MachineState& b) {
  if (a.fsm_state != b.fsm_state) return false;
  if (a.vars.size() != b.vars.size()) return false;
  for (std::size_t i = 0; i < a.vars.size(); ++i) {
    if (!equals(a.vars[i], b.vars[i], /*undefined_wildcard=*/false)) {
      return false;
    }
  }
  if (a.heap.live_cells() != b.heap.live_cells()) return false;
  for (const auto& [addr, value] : a.heap.cells()) {
    const Value* other = b.heap.cell(addr);
    if (other == nullptr || !equals(value, *other, false)) return false;
  }
  return true;
}

TEST(Trail, UndoRestoresVariableWrites) {
  MachineState m;
  m.fsm_state = 3;
  m.vars.push_back(Value::make_int(1));
  m.vars.push_back(Value::make_record({Value::make_int(2)}));
  const MachineState oracle = m;

  Trail trail;
  const Trail::Mark mark = trail.mark();
  trail.log_write(Root::Var, 0, {}, m.vars[0]);
  m.vars[0] = Value::make_int(99);
  const std::uint32_t field0[] = {0};
  trail.log_write(Root::Var, 1, field0, m.vars[1].elems()[0]);
  m.vars[1].elems()[0] = Value::make_int(98);
  trail.log_fsm(m.fsm_state);
  m.fsm_state = 7;

  trail.undo_to(mark, m);
  EXPECT_TRUE(same_machine(m, oracle));
  EXPECT_EQ(trail.size(), 0u);
  EXPECT_EQ(trail.total_logged(), 3u);  // monotone, not decreased by undo
}

TEST(Trail, UndoRevertsAllocateAndRestoresCursor) {
  MachineState m;
  (void)m.heap.allocate(Value::make_int(1));
  const MachineState oracle = m;

  Trail trail;
  const Trail::Mark mark = trail.mark();
  const std::uint32_t a = m.heap.allocate(Value::make_int(2));
  trail.log_heap_alloc(a);
  const std::uint32_t b = m.heap.allocate(Value::make_int(3));
  trail.log_heap_alloc(b);

  trail.undo_to(mark, m);
  EXPECT_TRUE(same_machine(m, oracle));
  // The allocation cursor must rewind too: the next allocation after the
  // undo yields the same address a deep-copy restore would.
  MachineState copy = oracle;
  EXPECT_EQ(m.heap.allocate(Value::make_int(9)),
            copy.heap.allocate(Value::make_int(9)));
}

TEST(Trail, UndoRevertsReleaseWithOldContents) {
  MachineState m;
  const std::uint32_t a = m.heap.allocate(Value::make_int(41));
  const MachineState oracle = m;

  Trail trail;
  const Trail::Mark mark = trail.mark();
  Value old = *m.heap.cell(a);
  trail.log_heap_release(a, std::move(old));
  ASSERT_TRUE(m.heap.release(a));

  trail.undo_to(mark, m);
  EXPECT_TRUE(same_machine(m, oracle));
  ASSERT_NE(m.heap.cell(a), nullptr);
  EXPECT_EQ(m.heap.cell(a)->scalar(), 41);
}

TEST(Trail, NestedMarksUnwindLifo) {
  MachineState m;
  m.vars.push_back(Value::make_int(0));
  const MachineState at_outer = m;

  Trail trail;
  const Trail::Mark outer = trail.mark();
  trail.log_write(Root::Var, 0, {}, m.vars[0]);
  m.vars[0] = Value::make_int(1);
  const MachineState at_inner = m;

  const Trail::Mark inner = trail.mark();
  trail.log_write(Root::Var, 0, {}, m.vars[0]);
  m.vars[0] = Value::make_int(2);

  trail.undo_to(inner, m);
  EXPECT_TRUE(same_machine(m, at_inner));
  // The inner mark survives a restore: a second sibling redoes and rewinds.
  trail.log_write(Root::Var, 0, {}, m.vars[0]);
  m.vars[0] = Value::make_int(3);
  trail.undo_to(inner, m);
  EXPECT_TRUE(same_machine(m, at_inner));

  trail.undo_to(outer, m);
  EXPECT_TRUE(same_machine(m, at_outer));
}

TEST(Trail, LeafEntriesSaveOnlyTheLeaf) {
  // pend[2] := 7 on a 128-slot array logs one integer: the entry's bytes
  // are its record plus one path step, not the array.
  MachineState m;
  m.vars.push_back(Value::make_aggregate(Value::Kind::Array, 128));
  for (Value& v : m.vars[0].elems()) v = Value::make_int(0);
  const MachineState oracle = m;

  Trail trail;
  const std::uint32_t at2[] = {2};
  trail.log_write(Root::Var, 0, at2, m.vars[0].elems()[2]);
  m.vars[0].elems()[2] = Value::make_int(7);
  const std::size_t one_entry = trail.bytes();
  EXPECT_LT(one_entry, 128 * sizeof(Value));

  trail.undo_to(0, m);
  EXPECT_TRUE(same_machine(m, oracle));
  EXPECT_EQ(trail.bytes(), 0u);  // undo drops the path steps as well
}

TEST(Trail, LeafUndoedAfterLaterWholeRootAssignment) {
  // r.a[1].f := 5, then r := {other}: newest-first undo restores r's old
  // structure before walking r.a[1].f again.
  MachineState m;
  const auto elem = [](std::int64_t f) {
    return Value::make_record({Value::make_int(f)});
  };
  m.vars.push_back(Value::make_record(
      {Value::make_array({elem(1), elem(2), elem(3)})}));
  const MachineState oracle = m;

  Trail trail;
  const std::uint32_t path[] = {0, 1, 0};
  Value& leaf = m.vars[0].elems()[0].elems()[1].elems()[0];
  trail.log_write(Root::Var, 0, path, leaf);
  leaf = Value::make_int(5);
  trail.log_write(Root::Var, 0, {}, m.vars[0]);
  m.vars[0] = Value::make_int(0);  // a different shape altogether

  trail.undo_to(0, m);
  EXPECT_TRUE(same_machine(m, oracle));
}

TEST(Trail, LeafUnderAnUnloggedReplacementIsCoveredByItsAncestor) {
  // A var parameter bound to r.a logs r.a; writes through the parameter
  // are not logged. If one replaces r.a by an undefined value after a
  // logged write below it, undoing that write finds no aggregate on its
  // path; the older entry for r.a restores the subtree.
  MachineState m;
  m.vars.push_back(Value::make_record(
      {Value::make_array({Value::make_int(1), Value::make_int(2)})}));
  const MachineState oracle = m;

  Trail trail;
  const std::uint32_t to_a[] = {0};
  trail.log_write(Root::Var, 0, to_a, m.vars[0].elems()[0]);  // binding
  const std::uint32_t to_a1[] = {0, 1};
  trail.log_write(Root::Var, 0, to_a1, m.vars[0].elems()[0].elems()[1]);
  m.vars[0].elems()[0].elems()[1] = Value::make_int(9);
  m.vars[0].elems()[0] = Value{};  // through the parameter: unlogged

  trail.undo_to(0, m);
  EXPECT_TRUE(same_machine(m, oracle));
}

/// The location `path` leads to below `root`.
Value& at(Value& root, std::span<const std::uint32_t> path) {
  Value* v = &root;
  for (const std::uint32_t step : path) v = &v->elems()[step];
  return *v;
}

/// A random location inside `root`: the element positions of a descent
/// that stops at a scalar or, now and then, at an aggregate.
std::vector<std::uint32_t> random_path(const Value& root, std::mt19937& rng) {
  std::vector<std::uint32_t> path;
  const Value* v = &root;
  while (!v->is_scalar() && rng() % 4 != 0) {
    const auto step = static_cast<std::uint32_t>(rng() % v->elems().size());
    path.push_back(step);
    v = &v->elems()[step];
  }
  return path;
}

/// An int, or a record or array of up to three random values, `depth`
/// levels deep at most; pointers to `live` cells when `live` is given.
Value random_value(std::mt19937& rng, int depth,
                   const std::vector<std::uint32_t>* live = nullptr) {
  const std::uint32_t pick = rng() % 6;
  if (depth > 0 && pick < 2) {
    std::vector<Value> elems(1 + rng() % 3);
    for (Value& e : elems) e = random_value(rng, depth - 1, live);
    return pick == 0 ? Value::make_record(std::move(elems))
                     : Value::make_array(std::move(elems));
  }
  if (live != nullptr && !live->empty() && pick == 2) {
    return Value::make_pointer((*live)[rng() % live->size()]);
  }
  if (pick == 3) return Value{};
  return Value::make_int(static_cast<std::int64_t>(rng() % 100));
}

TEST(Trail, RandomMutationSweepAgreesWithDeepCopy) {
  // Property: for random interleavings of whole-root and leaf writes to
  // nested variables and heap cells, allocations and releases, under
  // nested marks, undo_to(mark) == the deep copy at the mark, and the
  // restored hash cache agrees with the full walk. Every mutation follows
  // the interpreter's discipline: capture the cache entry, dirty it, log
  // the old leaf, write.
  std::mt19937 rng(2026);
  for (int round = 0; round < 50; ++round) {
    MachineState m;
    std::vector<std::uint32_t> live;
    m.fsm_state = 0;
    for (int i = 0; i < 3; ++i) {
      live.push_back(m.heap.allocate(random_value(rng, 3)));
    }
    // Slots 0-1 are pointer-free (a cache component each); slot 2 may
    // hold pointers (the joint heap component).
    m.vars.push_back(random_value(rng, 3));
    m.vars.push_back(random_value(rng, 3));
    m.vars.push_back(random_value(rng, 2, &live));
    m.set_pointer_flags({0, 0, 1});
    (void)m.hash_cached();

    struct Saved {
      Trail::Mark mark;
      MachineState oracle;
      std::vector<std::uint32_t> live;
    };
    std::vector<Saved> saved;
    Trail trail;
    saved.push_back(Saved{trail.mark(), m, live});
    for (int step = 0; step < 80; ++step) {
      switch (rng() % 6) {
        case 0:
        case 1: {  // variable write, whole root or leaf
          const int slot = static_cast<int>(rng() % m.vars.size());
          Value& root = m.vars[static_cast<std::size_t>(slot)];
          const std::vector<std::uint32_t> path = random_path(root, rng);
          const CompCache prior = m.var_cache_entry(slot);
          m.note_var_write(slot);
          Value& leaf = at(root, path);
          trail.log_write(Root::Var, static_cast<std::uint32_t>(slot), path,
                          leaf, prior);
          leaf = random_value(rng, 2, slot == 2 ? &live : nullptr);
          break;
        }
        case 2: {  // heap cell write, whole cell or leaf
          if (live.empty()) break;
          const std::uint32_t addr = live[rng() % live.size()];
          const CompCache prior = m.heap_cache_entry();
          Value* cell = m.heap.cell(addr);
          const std::vector<std::uint32_t> path = random_path(*cell, rng);
          Value& leaf = at(*cell, path);
          trail.log_write(Root::Heap, addr, path, leaf, prior);
          leaf = random_value(rng, 2, &live);
          break;
        }
        case 3: {  // allocate
          const CompCache prior = m.heap_cache_entry();
          const std::uint32_t addr =
              m.heap.allocate(random_value(rng, 3, &live));
          trail.log_heap_alloc(addr, prior);
          live.push_back(addr);
          break;
        }
        case 4: {  // release
          if (live.empty()) break;
          const std::size_t pick = rng() % live.size();
          const std::uint32_t addr = live[pick];
          const CompCache prior = m.heap_cache_entry();
          trail.log_heap_release(addr, std::move(*m.heap.cell(addr)), prior);
          ASSERT_TRUE(m.heap.release(addr));
          live.erase(live.begin() + static_cast<long>(pick));
          break;
        }
        case 5: {  // between firings: hash, then save or restore
          (void)m.hash_cached();
          if (saved.size() < 4 || rng() % 2 == 0) {
            saved.push_back(Saved{trail.mark(), m, live});
            break;
          }
          const std::size_t pick = rng() % saved.size();
          trail.undo_to(saved[pick].mark, m);
          live = saved[pick].live;
          ASSERT_TRUE(same_machine(m, saved[pick].oracle))
              << "round " << round << " step " << step;
          ASSERT_EQ(m.hash_cached(), m.hash())
              << "round " << round << " step " << step;
          ASSERT_EQ(m.hash(), saved[pick].oracle.hash());
          saved.resize(pick + 1);
          break;
        }
      }
    }
    trail.undo_to(saved[0].mark, m);
    ASSERT_TRUE(same_machine(m, saved[0].oracle)) << "round " << round;
    ASSERT_EQ(m.hash_cached(), m.hash()) << "round " << round;
    ASSERT_EQ(m.hash(), saved[0].oracle.hash()) << "round " << round;
    EXPECT_EQ(trail.bytes(), 0u);
  }
}

}  // namespace
}  // namespace tango::rt
