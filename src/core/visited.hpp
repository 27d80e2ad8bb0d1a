// The §4.2 visited-state hash table, factored out of the DFS engines so it
// can be (a) bounded — `--visited-max` caps resident hashes and overflow
// evicts a uniformly random entry, trading pruning power for bounded
// memory on deep traces — and (b) shared across the parallel engine's
// workers through a sharded wrapper (one mutex per shard keyed on the
// hash's top bits, so workers exploring disjoint subtrees rarely contend).
//
// The table is one flat open-addressed array of 64-bit hashes (linear
// probing, power-of-two capacity, load at most ½), so a fresh state costs
// no allocation and one probe run. The bucket comes from the hash's low
// bits; the sharded wrapper picks shards from the top bits, so the two
// stay independent. Slot value 0 marks an empty slot; hash 0 is kept in a
// flag beside the array.
//
// Eviction is always sound: losing a hash can only cause a state to be
// re-explored, never a live path to be pruned. The replacement victim is
// drawn from a per-set xorshift generator with a fixed seed, so inline
// runs (and the parallel engine's deterministic mode, which uses private
// per-task sets) stay run-to-run reproducible. The victim depends only on
// the insertion history, never on the array's layout.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace tango::core {

class VisitedSet {
 public:
  /// `max_entries` = 0 keeps every hash (the pre-existing behaviour).
  explicit VisitedSet(std::uint64_t max_entries = 0,
                      std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// True when `h` was not yet present (the state is fresh — explore it);
  /// false when it was (§4.2: identical subtree, prune).
  bool insert(std::uint64_t h);

  /// Membership without inserting.
  [[nodiscard]] bool contains(std::uint64_t h) const;

  [[nodiscard]] std::size_t size() const {
    return used_ + (has_zero_ ? 1 : 0);
  }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  /// Index of `h`'s slot, or of the empty slot that ends its probe run.
  [[nodiscard]] std::size_t find_slot(std::uint64_t h) const;
  void grow();
  /// Removes a resident `h` by backward-shift deletion (no tombstones).
  void erase(std::uint64_t h);

  std::vector<std::uint64_t> slots_;  // 0 = empty; size is a power of two
  std::size_t used_ = 0;              // non-zero hashes in slots_
  bool has_zero_ = false;
  /// Resident hashes in insertion-then-swap order; only maintained when
  /// bounded, to give O(1) uniform victim selection.
  std::vector<std::uint64_t> keys_;
  std::uint64_t max_;
  std::uint64_t evictions_ = 0;
  std::uint64_t rng_;
};

/// Concurrent visited table for the parallel engine's relaxed mode: S
/// independently-locked VisitedSet shards. The per-analysis bound is
/// split evenly across shards (hashes distribute uniformly, so the
/// aggregate cap tracks `max_entries` closely).
class ShardedVisitedTable {
 public:
  ShardedVisitedTable(std::size_t shards, std::uint64_t max_entries);

  bool insert(std::uint64_t h);

  /// Sums per-shard eviction counters; call after the workers joined.
  [[nodiscard]] std::uint64_t total_evictions() const;

 private:
  struct Shard {
    std::mutex mu;
    VisitedSet set;
    explicit Shard(std::uint64_t max, std::uint64_t seed)
        : set(max, seed) {}
  };
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t mask_;
};

}  // namespace tango::core
