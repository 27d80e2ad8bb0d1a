#include "core/visited.hpp"

namespace tango::core {

namespace {

std::uint64_t xorshift64(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

VisitedSet::VisitedSet(std::uint64_t max_entries, std::uint64_t seed)
    : max_(max_entries), rng_(seed | 1) {}

std::size_t VisitedSet::find_slot(std::uint64_t h) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (slots_[i] != 0 && slots_[i] != h) i = (i + 1) & mask;
  return i;
}

bool VisitedSet::contains(std::uint64_t h) const {
  if (h == 0) return has_zero_;
  return !slots_.empty() && slots_[find_slot(h)] == h;
}

void VisitedSet::grow() {
  std::vector<std::uint64_t> old(slots_.empty() ? 16 : 2 * slots_.size(), 0);
  old.swap(slots_);
  for (const std::uint64_t h : old) {
    if (h != 0) slots_[find_slot(h)] = h;
  }
}

void VisitedSet::erase(std::uint64_t h) {
  if (h == 0) {
    has_zero_ = false;
    return;
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = find_slot(h);
  for (std::size_t j = (hole + 1) & mask; slots_[j] != 0;
       j = (j + 1) & mask) {
    // The entry at j may move back into the hole only when the hole lies
    // on its probe path, between its home bucket and j.
    const std::size_t home = static_cast<std::size_t>(slots_[j]) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
  --used_;
}

bool VisitedSet::insert(std::uint64_t h) {
  if (h == 0) {
    if (has_zero_) return false;
    has_zero_ = true;
  } else {
    if (slots_.empty()) grow();
    std::size_t i = find_slot(h);
    if (slots_[i] == h) return false;
    if (2 * (used_ + 1) > slots_.size()) {
      grow();
      i = find_slot(h);
    }
    slots_[i] = h;
    ++used_;
  }
  if (max_ == 0) return true;
  keys_.push_back(h);
  if (keys_.size() > max_) {
    const std::size_t victim =
        static_cast<std::size_t>(xorshift64(rng_) % keys_.size());
    erase(keys_[victim]);
    keys_[victim] = keys_.back();
    keys_.pop_back();
    ++evictions_;
    // The victim could have been the hash just inserted; either way the
    // caller explores the state — only the *memory* of it may be dropped.
  }
  return true;
}

ShardedVisitedTable::ShardedVisitedTable(std::size_t shards,
                                         std::uint64_t max_entries) {
  const std::size_t n = round_up_pow2(shards == 0 ? 1 : shards);
  mask_ = n - 1;
  const std::uint64_t per_shard =
      max_entries == 0 ? 0 : (max_entries + n - 1) / n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        per_shard, 0x9e3779b97f4a7c15ULL + i));
  }
}

bool ShardedVisitedTable::insert(std::uint64_t h) {
  // Shard on the high bits: the low bits pick the bucket inside the
  // shard's own table, and reusing them for both would correlate the two.
  Shard& s = *shards_[static_cast<std::size_t>(h >> 48) & mask_];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.set.insert(h);
}

std::uint64_t ShardedVisitedTable::total_evictions() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->set.evictions();
  return total;
}

}  // namespace tango::core
