#include "runtime/heap.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "runtime/machine.hpp"

namespace tango::rt {
namespace {

TEST(Heap, AllocateAndLookup) {
  Heap h;
  const std::uint32_t a = h.allocate(Value::make_int(7));
  ASSERT_NE(h.cell(a), nullptr);
  EXPECT_EQ(h.cell(a)->scalar(), 7);
  EXPECT_EQ(h.live_cells(), 1u);
}

TEST(Heap, AddressesAreNeverReused) {
  Heap h;
  const std::uint32_t a = h.allocate(Value::make_int(1));
  ASSERT_TRUE(h.release(a));
  const std::uint32_t b = h.allocate(Value::make_int(2));
  EXPECT_NE(a, b);  // deterministic restore depends on monotonic addresses
}

TEST(Heap, ReleaseUnknownAddressFails) {
  Heap h;
  EXPECT_FALSE(h.release(99));
  const std::uint32_t a = h.allocate(Value::make_int(1));
  EXPECT_TRUE(h.release(a));
  EXPECT_FALSE(h.release(a));  // double dispose
}

TEST(Heap, LookupAfterReleaseIsNull) {
  Heap h;
  const std::uint32_t a = h.allocate(Value::make_int(1));
  h.release(a);
  EXPECT_EQ(h.cell(a), nullptr);
}

TEST(Heap, CopyIsDeep) {
  Heap h;
  const std::uint32_t a = h.allocate(Value::make_int(1));
  Heap copy = h;  // save (§2.3: dynamic memory is part of the TAM state)
  (void)h.cell(a)->elems();  // no-op touch
  *h.cell(a) = Value::make_int(99);
  EXPECT_EQ(copy.cell(a)->scalar(), 1);  // restore point unaffected
}

TEST(Heap, CopyPreservesAllocationCursor) {
  Heap h;
  (void)h.allocate(Value::make_int(1));
  Heap copy = h;
  const std::uint32_t from_orig = h.allocate(Value::make_int(2));
  const std::uint32_t from_copy = copy.allocate(Value::make_int(2));
  // Identical next-address behaviour keeps the search deterministic after
  // a restore.
  EXPECT_EQ(from_orig, from_copy);
}

TEST(Heap, HashReflectsLiveCells) {
  // Cell contents flow into the state hash through the reachability walk
  // in MachineState::hash().
  MachineState a, b;
  a.vars.push_back(Value::make_pointer(a.heap.allocate(Value::make_int(5))));
  b.vars.push_back(Value::make_pointer(b.heap.allocate(Value::make_int(6))));
  EXPECT_NE(a.hash(), b.hash());
}

TEST(MachineState, HashIsCanonicalUnderAllocationOrder) {
  // Regression (hash-pruned DFS, §4.2): two new/dispose interleavings that
  // reach structurally identical states must hash equal. State A allocates
  // a scratch cell first and disposes it, so its live cell sits at address
  // 2; state B allocates directly at address 1.
  MachineState a;
  const std::uint32_t scratch = a.heap.allocate(Value::make_int(0));
  const std::uint32_t a_cell = a.heap.allocate(Value::make_int(5));
  ASSERT_TRUE(a.heap.release(scratch));
  a.vars.push_back(Value::make_pointer(a_cell));

  MachineState b;
  b.vars.push_back(Value::make_pointer(b.heap.allocate(Value::make_int(5))));

  ASSERT_NE(a_cell, b.vars[0].address());  // different absolute addresses
  EXPECT_EQ(a.hash(), b.hash());           // same structure, same hash
}

TEST(MachineState, HashSeesThroughTwoPointersToOneCell) {
  // Aliasing matters: two pointers to ONE cell is a different structure
  // from two pointers to two equal cells.
  MachineState shared;
  const std::uint32_t one = shared.heap.allocate(Value::make_int(7));
  shared.vars.push_back(Value::make_pointer(one));
  shared.vars.push_back(Value::make_pointer(one));

  MachineState split;
  split.vars.push_back(
      Value::make_pointer(split.heap.allocate(Value::make_int(7))));
  split.vars.push_back(
      Value::make_pointer(split.heap.allocate(Value::make_int(7))));

  EXPECT_NE(shared.hash(), split.hash());
}

TEST(MachineState, HashTerminatesOnCyclicStructures) {
  // node^.next := head (a one-cell cycle through a record field).
  MachineState m;
  const std::uint32_t addr = m.heap.allocate(Value::make_record({Value{}}));
  m.heap.cell(addr)->elems()[0] = Value::make_pointer(addr);
  m.vars.push_back(Value::make_pointer(addr));
  const std::uint64_t h = m.hash();  // must not recurse forever
  MachineState copy = m;
  EXPECT_EQ(copy.hash(), h);
}

TEST(MachineState, HashStillSeesLeakedCells) {
  // A leaked (unreachable) cell is part of the memory state; two states
  // that differ only in a leak must not collapse to one hash bucket.
  MachineState reachable_only;
  reachable_only.vars.push_back(Value::nil());
  MachineState leaky = reachable_only;
  (void)leaky.heap.allocate(Value::make_int(1));
  EXPECT_NE(reachable_only.hash(), leaky.hash());
}

TEST(MachineState, HashIsDeterministicAndDiscriminating) {
  MachineState a;
  a.fsm_state = 1;
  a.vars.push_back(Value::make_int(5));
  MachineState b = a;
  EXPECT_EQ(a.hash(), b.hash());

  b.fsm_state = 2;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.vars[0] = Value::make_int(6);
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  (void)b.heap.allocate(Value::make_int(1));
  EXPECT_NE(a.hash(), b.hash());
}

TEST(MachineState, CopyIsIndependent) {
  MachineState a;
  a.vars.push_back(Value::make_record({Value::make_int(1)}));
  const std::uint32_t addr = a.heap.allocate(Value::make_int(9));
  MachineState saved = a;  // the DFS save operation
  a.vars[0].elems()[0] = Value::make_int(2);
  *a.heap.cell(addr) = Value::make_int(10);
  // restore: the snapshot still holds the original values
  EXPECT_EQ(saved.vars[0].elems()[0].scalar(), 1);
  EXPECT_EQ(saved.heap.cell(addr)->scalar(), 9);
}

class HeapModelSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(HeapModelSweep, RandomOpsAgreeWithAReferenceModel) {
  // Property: the Heap behaves exactly like a map from addresses to values
  // under arbitrary interleavings of allocate / write / release, and a
  // copy taken at any point is a faithful snapshot.
  std::mt19937 rng(GetParam());
  Heap heap;
  std::map<std::uint32_t, long long> model;
  Heap snapshot;
  std::map<std::uint32_t, long long> snapshot_model;

  for (int step = 0; step < 500; ++step) {
    switch (rng() % 5) {
      case 0: {  // allocate
        const long long v = static_cast<long long>(rng() % 1000);
        const std::uint32_t addr = heap.allocate(Value::make_int(v));
        EXPECT_FALSE(model.count(addr));  // never reuse live addresses
        model[addr] = v;
        break;
      }
      case 1: {  // write through a live address
        if (model.empty()) break;
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng() % model.size()));
        const long long v = static_cast<long long>(rng() % 1000);
        *heap.cell(it->first) = Value::make_int(v);
        it->second = v;
        break;
      }
      case 2: {  // release
        if (model.empty()) break;
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng() % model.size()));
        EXPECT_TRUE(heap.release(it->first));
        model.erase(it);
        break;
      }
      case 3: {  // take a snapshot (the DFS save operation)
        snapshot = heap;
        snapshot_model = model;
        break;
      }
      case 4: {  // restore the snapshot
        heap = snapshot;
        model = snapshot_model;
        break;
      }
    }
    // Invariants after every step.
    EXPECT_EQ(heap.live_cells(), model.size());
    for (const auto& [addr, v] : model) {
      ASSERT_NE(heap.cell(addr), nullptr);
      EXPECT_EQ(heap.cell(addr)->scalar(), v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapModelSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace tango::rt
