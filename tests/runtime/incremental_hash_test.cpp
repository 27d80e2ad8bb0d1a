// Randomized differential test for the incremental state hash
// (machine.hpp): drive long random mutate/undo sequences — whole-root and
// leaf stores into nested variables and heap cells, heap alloc/release
// (with aliasing, cycles and dangling pointers), FSM changes, nested Trail
// mark/undo_to — through exactly the
// hook discipline the interpreter uses (capture the clobbered cache entry,
// log to the Trail, note_var_write, then mutate), asserting after EVERY
// step that hash_cached() equals the full-walk oracle hash(), and after
// every undo that the state hashes equal to a deep copy taken at the mark.
//
// The CursorSet leg (core/search_state.hpp) gets the same treatment:
// random advance/retreat with hash() checked against hash_full().
#include "runtime/machine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/search_state.hpp"
#include "runtime/trail.hpp"
#include "runtime/value.hpp"

namespace tango::rt {
namespace {

std::uint32_t next_rand(std::uint32_t& state) {
  state = state * 1664525u + 1013904223u;
  return state >> 8;
}

/// A random location inside `root`: the element positions of a descent
/// that stops at a scalar or, now and then, at an aggregate.
std::vector<std::uint32_t> random_path(const Value& root,
                                       std::uint32_t& rng) {
  std::vector<std::uint32_t> path;
  const Value* v = &root;
  while (!v->is_scalar() && next_rand(rng) % 4 != 0) {
    const auto step =
        static_cast<std::uint32_t>(next_rand(rng) % v->elems().size());
    path.push_back(step);
    v = &v->elems()[step];
  }
  return path;
}

/// The location `path` leads to below `root`.
Value& at(Value& root, std::span<const std::uint32_t> path) {
  Value* v = &root;
  for (const std::uint32_t step : path) v = &v->elems()[step];
  return *v;
}

/// A saved checkpoint: the trail mark plus a deep-copy oracle of the
/// machine and of the live-address bookkeeping at that point.
struct Saved {
  Trail::Mark mark;
  MachineState oracle;
  std::vector<std::uint32_t> live;
};

/// One randomized campaign over a machine with three pointer-free slots
/// (each its own cached component) and three pointer-bearing slots (the
/// joint heap component). Slots and cells hold records of arrays, so a
/// store may replace a whole root or only a leaf inside it.
void run_campaign(std::uint32_t seed) {
  constexpr int kPfSlots = 3;
  constexpr int kSlots = 6;

  std::uint32_t rng = seed;
  auto random_int = [&]() {
    return Value::make_int(static_cast<std::int64_t>(next_rand(rng) % 64));
  };
  // {int, [int, int, int]}: a pointer-free slot's value.
  auto random_pf_value = [&]() {
    return Value::make_record(
        {random_int(), Value::make_array({random_int(), random_int(),
                                          random_int()})});
  };

  MachineState m;
  m.fsm_state = 0;
  for (int i = 0; i < kPfSlots; ++i) m.vars.push_back(random_pf_value());
  for (int i = kPfSlots; i < kSlots; ++i) {
    m.vars.push_back(Value::make_record(
        {Value::nil(), Value::make_array({Value::nil(), Value::nil()})}));
  }
  m.set_pointer_flags({0, 0, 0, 1, 1, 1});

  Trail trail;
  std::vector<std::uint32_t> live;
  std::vector<Saved> marks;

  // Build the cache once up front; every later op must keep it current.
  ASSERT_EQ(m.hash_cached(), m.hash());

  auto random_cell_value = [&]() {
    // Ints, pointers to live cells (aliasing, cycles once stored back into
    // the heap) and nil, so reachability keeps changing shape.
    const std::uint32_t pick = next_rand(rng) % 4;
    if (pick == 0 && !live.empty()) {
      return Value::make_pointer(live[next_rand(rng) % live.size()]);
    }
    if (pick == 1) return Value::nil();
    return random_int();
  };
  // {ptr-or-int, [ptr-or-int, ptr-or-int]}: a heap cell's value.
  auto random_cell_record = [&]() {
    return Value::make_record(
        {random_cell_value(),
         Value::make_array({random_cell_value(), random_cell_value()})});
  };

  for (int step = 0; step < 400; ++step) {
    const std::uint32_t op = next_rand(rng) % 12;
    if (op < 2) {
      // Store to a pointer-free slot, the whole value or a leaf inside
      // it: dirties exactly that component. The leaf is found after the
      // cache entry is captured, the way the interpreter descends.
      const int slot = static_cast<int>(next_rand(rng)) % kPfSlots;
      const CompCache prior = m.var_cache_entry(slot);
      m.note_var_write(slot);
      const std::vector<std::uint32_t> path =
          op == 0 ? std::vector<std::uint32_t>{}
                  : random_path(m.vars[slot], rng);
      Value& leaf = at(m.vars[slot], path);
      trail.log_write(Trail::Root::Var, slot, path, leaf, prior);
      leaf = leaf.is_scalar() ? random_int() : random_pf_value();
    } else if (op < 4) {
      // Store to a pointer-bearing root, whole or a leaf: dirties the
      // joint heap component.
      const int slot =
          kPfSlots + static_cast<int>(next_rand(rng)) % (kSlots - kPfSlots);
      const CompCache prior = m.var_cache_entry(slot);
      m.note_var_write(slot);
      const std::vector<std::uint32_t> path =
          op == 2 ? std::vector<std::uint32_t>{}
                  : random_path(m.vars[slot], rng);
      Value& leaf = at(m.vars[slot], path);
      trail.log_write(Trail::Root::Var, slot, path, leaf, prior);
      leaf = path.empty() ? random_cell_record() : random_cell_value();
    } else if (op < 6) {
      // new: capture the heap entry BEFORE the allocation bumps the epoch.
      const CompCache prior = m.heap_cache_entry();
      const std::uint32_t addr = m.heap.allocate(random_cell_record());
      trail.log_heap_alloc(addr, prior);
      live.push_back(addr);
    } else if (op < 8 && !live.empty()) {
      // Write through a pointer, to the whole cell or a leaf inside it:
      // the non-const cell() bumps the epoch, so the prior entry must be
      // captured first (interp.cpp discipline).
      const std::uint32_t addr = live[next_rand(rng) % live.size()];
      const CompCache prior = m.heap_cache_entry();
      Value* cell = m.heap.cell(addr);
      ASSERT_NE(cell, nullptr);
      const std::vector<std::uint32_t> path =
          op == 6 ? std::vector<std::uint32_t>{} : random_path(*cell, rng);
      Value& leaf = at(*cell, path);
      trail.log_write(Trail::Root::Heap, addr, path, leaf, prior);
      leaf = path.empty() ? random_cell_record() : random_cell_value();
    } else if (op == 8 && !live.empty()) {
      // dispose: old contents read through the const heap (no epoch bump
      // before the prior entry is captured). Roots/cells that still point
      // at the address go dangling — the hash must observe that too.
      const std::size_t idx = next_rand(rng) % live.size();
      const std::uint32_t addr = live[idx];
      const CompCache prior = m.heap_cache_entry();
      const Heap& heap = m.heap;
      const Value* old = heap.cell(addr);
      ASSERT_NE(old, nullptr);
      trail.log_heap_release(addr, *old, prior);
      ASSERT_TRUE(m.heap.release(addr));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op == 9) {
      trail.log_fsm(m.fsm_state);
      m.fsm_state = static_cast<int>(next_rand(rng) % 7);
    } else if (op >= 10) {
      if (marks.size() < 4 || next_rand(rng) % 2 == 0) {
        marks.push_back(Saved{trail.mark(), m, live});
      } else {
        // Undo to a random saved mark (drops deeper marks, like a DFS
        // backtracking past them). Restore must be hash-free AND correct:
        // the cached hash must match the deep-copy oracle's full hash.
        const std::size_t pick = next_rand(rng) % marks.size();
        Saved saved = marks[pick];
        marks.resize(pick);
        trail.undo_to(saved.mark, m);
        live = saved.live;
        ASSERT_EQ(m.vars.size(), saved.oracle.vars.size());
        for (std::size_t i = 0; i < m.vars.size(); ++i) {
          ASSERT_TRUE(equals(m.vars[i], saved.oracle.vars[i], false))
              << "seed " << seed << " step " << step << " slot " << i;
        }
        ASSERT_EQ(m.heap.live_cells(), saved.oracle.heap.live_cells());
        for (const auto& [addr, value] : saved.oracle.heap.cells()) {
          const Heap& heap = m.heap;
          const Value* cell = heap.cell(addr);
          ASSERT_NE(cell, nullptr) << "seed " << seed << " step " << step;
          ASSERT_TRUE(equals(*cell, value, false))
              << "seed " << seed << " step " << step << " cell " << addr;
        }
        ASSERT_EQ(m.hash_cached(), saved.oracle.hash())
            << "seed " << seed << " step " << step;
      }
    }
    ASSERT_EQ(m.hash_cached(), m.hash())
        << "seed " << seed << " step " << step << " op " << op;
  }

  // Unwind everything: back to the very first state.
  const MachineState pristine_oracle = marks.empty() ? m : marks[0].oracle;
  if (!marks.empty()) trail.undo_to(marks[0].mark, m);
  trail.undo_to(0, m);
  ASSERT_EQ(m.hash_cached(), m.hash());
  (void)pristine_oracle;
}

TEST(IncrementalHash, RandomizedMutateUndoAgreesWithOracle) {
  for (const std::uint32_t seed : {11u, 23u, 95u, 1995u, 4242u}) {
    run_campaign(seed);
  }
}

TEST(IncrementalHash, UndoToInitialStateRestoresInitialHash) {
  MachineState m;
  m.fsm_state = 1;
  m.vars = {Value::make_int(5), Value::nil()};
  m.set_pointer_flags({0, 1});
  const std::uint64_t h0 = m.hash_cached();
  ASSERT_EQ(h0, m.hash());

  Trail trail;
  const Trail::Mark mark = trail.mark();

  trail.log_write(Trail::Root::Var, 0, {}, m.vars[0], m.var_cache_entry(0));
  m.note_var_write(0);
  m.vars[0] = Value::make_int(6);

  const CompCache before_alloc = m.heap_cache_entry();
  const std::uint32_t addr = m.heap.allocate(Value::make_int(7));
  trail.log_heap_alloc(addr, before_alloc);

  trail.log_write(Trail::Root::Var, 1, {}, m.vars[1], m.var_cache_entry(1));
  m.note_var_write(1);
  m.vars[1] = Value::make_pointer(addr);

  EXPECT_NE(m.hash_cached(), h0);
  EXPECT_EQ(m.hash_cached(), m.hash());

  trail.undo_to(mark, m);
  EXPECT_EQ(m.hash_cached(), h0);
  EXPECT_EQ(m.hash_cached(), m.hash());
}

TEST(IncrementalHash, CursorSetMaintainedHashMatchesFull) {
  constexpr int kIps = 5;
  core::CursorSet cursors(kIps);
  EXPECT_EQ(cursors.hash(), cursors.hash_full());

  std::uint32_t rng = 0x7a0u;
  std::vector<int> depth(2 * kIps, 0);
  std::uint64_t initial = cursors.hash();
  for (int step = 0; step < 500; ++step) {
    const int ip = static_cast<int>(next_rand(rng)) % kIps;
    const tr::Dir dir = next_rand(rng) % 2 == 0 ? tr::Dir::In : tr::Dir::Out;
    const std::size_t j =
        static_cast<std::size_t>(ip) +
        (dir == tr::Dir::Out ? static_cast<std::size_t>(kIps) : 0u);
    if (depth[j] > 0 && next_rand(rng) % 3 == 0) {
      cursors.retreat(dir, ip);
      --depth[j];
    } else {
      cursors.advance(dir, ip);
      ++depth[j];
    }
    ASSERT_EQ(cursors.hash(), cursors.hash_full()) << "step " << step;
  }
  // Retreat everything: the maintained fold must land exactly back on the
  // all-zero-cursor hash, not merely on *a* consistent value.
  for (int ip = 0; ip < kIps; ++ip) {
    while (depth[static_cast<std::size_t>(ip)] > 0) {
      cursors.retreat(tr::Dir::In, ip);
      --depth[static_cast<std::size_t>(ip)];
    }
    while (depth[static_cast<std::size_t>(ip + kIps)] > 0) {
      cursors.retreat(tr::Dir::Out, ip);
      --depth[static_cast<std::size_t>(ip + kIps)];
    }
  }
  EXPECT_EQ(cursors.hash(), initial);
  EXPECT_EQ(cursors.hash(), cursors.hash_full());
}

}  // namespace
}  // namespace tango::rt
