// Unit coverage for the parallel work-stealing engine and its supporting
// pieces: the bounded VisitedSet / ShardedVisitedTable, verdict parity
// with core::analyze, run-to-run determinism of --deterministic mode,
// budget exhaustion, eviction accounting, and the batch front-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/dfs.hpp"
#include "core/parallel_dfs.hpp"
#include "core/visited.hpp"
#include "estelle/spec.hpp"
#include "obs/sink.hpp"
#include "sim/mutate.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango::core {
namespace {

TEST(VisitedSet, UnboundedKeepsEverything) {
  VisitedSet set;
  for (std::uint64_t h = 0; h < 1000; ++h) EXPECT_TRUE(set.insert(h));
  for (std::uint64_t h = 0; h < 1000; ++h) EXPECT_FALSE(set.insert(h));
  EXPECT_EQ(set.size(), 1000u);
  EXPECT_EQ(set.evictions(), 0u);
}

TEST(VisitedSet, BoundedEvictsAtCapacity) {
  VisitedSet set(/*max_entries=*/64);
  for (std::uint64_t h = 0; h < 1000; ++h) {
    // Every hash is fresh (never inserted before), so insert always
    // reports fresh even while older entries are being evicted.
    EXPECT_TRUE(set.insert(h));
  }
  EXPECT_LE(set.size(), 64u);
  EXPECT_EQ(set.evictions(), 1000u - 64u);
}

TEST(VisitedSet, EvictionIsSeedDeterministic) {
  VisitedSet a(/*max_entries=*/16), b(/*max_entries=*/16);
  std::vector<bool> ra, rb;
  for (std::uint64_t h = 0; h < 200; ++h) {
    ra.push_back(a.insert(h % 40));
    rb.push_back(b.insert(h % 40));
  }
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(a.evictions(), b.evictions());
}

/// The node-based table VisitedSet replaced, kept as the test oracle: the
/// same victim choice (xorshift64 over the resident keys, swap-remove) over
/// a std::unordered_set.
class OracleVisitedSet {
 public:
  explicit OracleVisitedSet(std::uint64_t max_entries)
      : max_(max_entries) {}

  bool insert(std::uint64_t h) {
    if (!set_.insert(h).second) return false;
    if (max_ == 0) return true;
    keys_.push_back(h);
    if (keys_.size() > max_) {
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      const std::size_t victim = rng_ % keys_.size();
      set_.erase(keys_[victim]);
      keys_[victim] = keys_.back();
      keys_.pop_back();
      ++evictions_;
    }
    return true;
  }
  [[nodiscard]] bool contains(std::uint64_t h) const {
    return set_.count(h) != 0;
  }
  [[nodiscard]] std::size_t size() const { return set_.size(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  std::unordered_set<std::uint64_t> set_;
  std::vector<std::uint64_t> keys_;
  std::uint64_t max_;
  std::uint64_t evictions_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL | 1;
};

/// Inserts `keys` into both tables and checks, after every insert, the
/// return value, size, evictions and the membership of every key.
void expect_matches_oracle(std::uint64_t max_entries,
                           const std::vector<std::uint64_t>& universe,
                           const std::vector<std::uint64_t>& keys) {
  VisitedSet set(max_entries);
  OracleVisitedSet oracle(max_entries);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(set.insert(keys[i]), oracle.insert(keys[i]))
        << "insert #" << i << " of " << keys[i];
    ASSERT_EQ(set.size(), oracle.size()) << "after insert #" << i;
    ASSERT_EQ(set.evictions(), oracle.evictions()) << "after insert #" << i;
    for (const std::uint64_t k : universe) {
      ASSERT_EQ(set.contains(k), oracle.contains(k))
          << "key " << k << " after insert #" << i;
    }
  }
}

/// `n` draws from `universe` (seeded, uniform).
std::vector<std::uint64_t> draws(const std::vector<std::uint64_t>& universe,
                                 std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    out.push_back(universe[s % universe.size()]);
  }
  return out;
}

TEST(VisitedSet, MatchesOracleOnRandomKeys) {
  // Full-range hashes (the shape of real state hashes), key 0 among them.
  std::vector<std::uint64_t> universe = {0};
  std::uint64_t h = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < 300; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    universe.push_back(h);
  }
  for (const std::uint64_t max : {0u, 1u, 7u, 64u}) {
    SCOPED_TRACE("max_entries " + std::to_string(max));
    expect_matches_oracle(max, universe, draws(universe, 1500, max + 11));
  }
}

TEST(VisitedSet, MatchesOracleWhenEveryKeySharesItsLowBits) {
  // Every key's low 20 bits are all ones, so each one's home is the last
  // bucket at every capacity the test reaches: one probe run holds them
  // all and wraps past the end of the array. Bounded runs evict from the
  // middle of that run and re-insert evicted keys into it.
  std::vector<std::uint64_t> universe = {0};
  for (std::uint64_t i = 1; i <= 150; ++i) {
    universe.push_back((i << 20) | 0xFFFFF);
  }
  for (const std::uint64_t max : {0u, 1u, 7u, 64u}) {
    SCOPED_TRACE("max_entries " + std::to_string(max));
    expect_matches_oracle(max, universe, draws(universe, 1000, max + 5));
  }
}

TEST(VisitedSet, ZeroIsAKeyLikeAnyOther) {
  VisitedSet set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.insert(16));  // lands in the bucket 0 would have had
  EXPECT_EQ(set.size(), 2u);
  // Bounded to one entry: the zero flag is evicted like a slot.
  VisitedSet one(/*max_entries=*/1);
  EXPECT_TRUE(one.insert(0));
  EXPECT_TRUE(one.insert(5));
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.evictions(), 1u);
  EXPECT_NE(one.contains(0), one.contains(5));
}

TEST(VisitedSet, EvictionVictimsArePinned) {
  // Victims of the default seed with 4 resident entries while 1..12 are
  // inserted: the sequence the node-based table produced, so a layout
  // change cannot move which states a bounded search forgets.
  VisitedSet set(/*max_entries=*/4);
  std::vector<std::uint64_t> victims;
  for (std::uint64_t h = 1; h <= 12; ++h) {
    ASSERT_TRUE(set.insert(h));
    for (std::uint64_t k = 1; k <= h; ++k) {
      if (!set.contains(k) &&
          std::find(victims.begin(), victims.end(), k) == victims.end()) {
        victims.push_back(k);
      }
    }
  }
  EXPECT_EQ(victims, (std::vector<std::uint64_t>{5, 6, 1, 7, 4, 8, 3, 10}));
  EXPECT_EQ(set.evictions(), 8u);
}

TEST(ShardedVisitedTable, DetectsDuplicatesAcrossFullKeyRange) {
  ShardedVisitedTable table(/*shards=*/8, /*max_entries=*/0);
  std::set<std::uint64_t> reference;
  std::uint64_t h = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < 2000; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    const std::uint64_t key = h % 700;  // force duplicates
    EXPECT_EQ(table.insert(key), reference.insert(key).second);
  }
  EXPECT_EQ(table.total_evictions(), 0u);
}

est::Spec tp0_spec() {
  return est::compile_spec(specs::builtin_spec("tp0"));
}

/// Branching workload: the §4.2 invalid TP0 trace, whose two valid
/// interleavings per round make the refutation tree exponential in n.
tr::Trace branching_invalid_trace(const est::Spec& spec, int n) {
  return sim::mutate_last_output_param(sim::tp0_paper_trace(spec, n));
}

TEST(ParallelDfs, MatchesSequentialVerdictOnBranchingWorkloads) {
  // Workload sizes track the preset cost: refuting the §4.2 invalid trace
  // explodes as the ordering constraint weakens (FULL ≪ IO ≪ NR), so each
  // preset gets the largest n that stays test-sized.
  struct Case { const char* order; int n; };
  est::Spec spec = tp0_spec();
  for (const Case& c : {Case{"io", 6}, Case{"full", 8}}) {
    for (const bool invalid : {false, true}) {
      tr::Trace trace = invalid ? branching_invalid_trace(spec, c.n)
                                : sim::tp0_paper_trace(spec, c.n);
      Options options =
          std::string(c.order) == "io" ? Options::io() : Options::full();
      const DfsResult seq = analyze(spec, trace, options);
      for (int jobs : {2, 4}) {
        options.jobs = jobs;
        const DfsResult par = analyze_parallel(spec, trace, options);
        EXPECT_EQ(par.verdict, seq.verdict)
            << "invalid=" << invalid << " order=" << c.order
            << " jobs=" << jobs;
      }
    }
  }
}

/// One analysis with its recorded event stream, one JSONL line per event.
struct Recorded {
  DfsResult result;
  std::vector<std::string> events;
};

Recorded record(bool parallel, const est::Spec& spec, const tr::Trace& trace,
                Options options) {
  obs::MemorySink sink;
  options.sink = &sink;
  Recorded out;
  out.result = parallel ? analyze_parallel(spec, trace, options)
                        : analyze(spec, trace, options);
  for (const obs::Event& e : sink.events()) {
    out.events.push_back(obs::to_jsonl(e));
  }
  return out;
}

TEST(ParallelDfs, JobsOneMatchesSequentialCountersExactly) {
  // With one job and relaxed scheduling, analyze_parallel runs the search
  // inline with no publication: it IS the sequential search, so every
  // counter, the solution, the note and the event stream line up.
  est::Spec spec = tp0_spec();
  struct Case { const char* name; tr::Trace trace; Options options; };
  Options io_hashed = Options::io();
  io_hashed.hash_states = true;
  const std::vector<Case> cases = {
      {"full/invalid n=8", branching_invalid_trace(spec, 8), Options::full()},
      {"io/hash/invalid n=6", branching_invalid_trace(spec, 6), io_hashed},
      {"io/valid n=6", sim::tp0_paper_trace(spec, 6), Options::io()},
  };
  for (const Case& c : cases) {
    const Recorded seq = record(false, spec, c.trace, c.options);
    Options options = c.options;
    options.jobs = 1;
    const Recorded par = record(true, spec, c.trace, options);
    EXPECT_EQ(par.result.verdict, seq.result.verdict) << c.name;
    // Every counter: TE/GE/RE/SA, pruned_by_hash, tasks_published, ...
    EXPECT_EQ(par.result.stats.to_json_counters(),
              seq.result.stats.to_json_counters())
        << c.name;
    EXPECT_EQ(par.result.stats.tasks_published, 0u) << c.name;
    EXPECT_EQ(par.result.solution, seq.result.solution) << c.name;
    EXPECT_EQ(par.result.note, seq.result.note) << c.name;
    ASSERT_EQ(par.events.size(), seq.events.size()) << c.name;
    for (std::size_t i = 0; i < seq.events.size(); ++i) {
      ASSERT_EQ(par.events[i], seq.events[i]) << c.name << " event " << i;
    }
  }
}

TEST(ParallelDfs, DeterministicModeIsRunToRunIdentical) {
  est::Spec spec = tp0_spec();
  tr::Trace trace = branching_invalid_trace(spec, 8);
  Options options = Options::full();
  options.jobs = 4;
  options.deterministic = true;
  options.hash_states = true;

  const DfsResult first = analyze_parallel(spec, trace, options);
  EXPECT_GT(first.stats.tasks_published, 0u);
  // Identical across runs and across jobs values — one job included, which
  // runs this mode too rather than the inline search.
  for (int jobs : {4, 2, 1}) {
    options.jobs = jobs;
    const DfsResult again = analyze_parallel(spec, trace, options);
    EXPECT_EQ(again.verdict, first.verdict);
    EXPECT_EQ(again.solution, first.solution);
    EXPECT_EQ(again.note, first.note);
    EXPECT_EQ(again.stats.transitions_executed,
              first.stats.transitions_executed);
    EXPECT_EQ(again.stats.generates, first.stats.generates);
    EXPECT_EQ(again.stats.restores, first.stats.restores);
    EXPECT_EQ(again.stats.saves, first.stats.saves);
    EXPECT_EQ(again.stats.pruned_by_hash, first.stats.pruned_by_hash);
    EXPECT_EQ(again.stats.tasks_published, first.stats.tasks_published);
    EXPECT_EQ(again.stats.max_depth, first.stats.max_depth);
  }
}

TEST(ParallelDfs, DeterministicSolutionMatchesSequential) {
  // On a valid trace the deterministic merge prefers the smallest-lineage
  // solution, which is the leftmost root — the same root the sequential
  // engine commits to.
  est::Spec spec = tp0_spec();
  tr::Trace trace = sim::tp0_paper_trace(spec, 6);
  Options options = Options::io();
  const DfsResult seq = analyze(spec, trace, options);
  ASSERT_EQ(seq.verdict, Verdict::Valid);
  options.jobs = 4;
  options.deterministic = true;
  const DfsResult par = analyze_parallel(spec, trace, options);
  EXPECT_EQ(par.verdict, Verdict::Valid);
  EXPECT_EQ(par.solution, seq.solution);
}

TEST(ParallelDfs, BudgetExhaustionIsInconclusive) {
  est::Spec spec = tp0_spec();
  tr::Trace trace = branching_invalid_trace(spec, 10);
  for (const bool deterministic : {false, true}) {
    Options options = Options::full();
    options.jobs = 4;
    options.deterministic = deterministic;
    options.max_transitions = 20;
    const DfsResult r = analyze_parallel(spec, trace, options);
    EXPECT_EQ(r.verdict, Verdict::Inconclusive)
        << "deterministic=" << deterministic;
  }
}

/// Holds the first publisher back until another worker steals, so a
/// steal happens whatever the schedule. The relaxed pool publishes a
/// branching node's other alternatives right after the node's checkpoint
/// save; that worker's next fire then waits for a `steal` event, for at
/// most ten seconds.
class StealLatch final : public obs::Sink {
 public:
  void emit(const obs::Event& e) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (e.kind == obs::EventKind::Steal) {
      stolen_ = true;
      cv_.notify_all();
    } else if (e.kind == obs::EventKind::CheckpointSave && publisher_ < 0) {
      publisher_ = e.worker;
    } else if (e.kind == obs::EventKind::Fire && e.worker == publisher_ &&
               !stolen_ && !timed_out_) {
      timed_out_ = !cv_.wait_for(lock, std::chrono::seconds(10),
                                 [this] { return stolen_; });
    }
  }
  [[nodiscard]] bool timed_out() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_out_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int publisher_ = -1;
  bool stolen_ = false;
  bool timed_out_ = false;
};

TEST(ParallelDfs, StealingActuallyHappens) {
  est::Spec spec = tp0_spec();
  tr::Trace trace = branching_invalid_trace(spec, 10);
  Options options = Options::full();
  options.jobs = 4;
  StealLatch latch;
  options.sink = &latch;
  const DfsResult r = analyze_parallel(spec, trace, options);
  EXPECT_FALSE(latch.timed_out()) << "no worker stole within 10 s";
  EXPECT_GT(r.stats.tasks_published, 0u);
  // With one trace root and >1 worker, any second worker's first task is
  // by definition stolen.
  EXPECT_GT(r.stats.tasks_stolen, 0u);
}

TEST(SequentialDfs, VisitedMaxEvictsWithoutChangingVerdicts) {
  est::Spec spec = tp0_spec();
  tr::Trace trace = branching_invalid_trace(spec, 8);
  Options unbounded = Options::full();
  unbounded.hash_states = true;
  const DfsResult full = analyze(spec, trace, unbounded);
  EXPECT_EQ(full.stats.evictions, 0u);

  Options bounded = unbounded;
  bounded.visited_max = 8;
  const DfsResult capped = analyze(spec, trace, bounded);
  EXPECT_EQ(capped.verdict, full.verdict);
  EXPECT_GT(capped.stats.evictions, 0u);
  // Weaker pruning can only re-explore states, never skip live paths.
  EXPECT_GE(capped.stats.transitions_executed,
            full.stats.transitions_executed);
}

TEST(ParallelDfs, VisitedMaxAppliesInBothModes) {
  est::Spec spec = tp0_spec();
  tr::Trace trace = branching_invalid_trace(spec, 8);
  for (const bool deterministic : {false, true}) {
    Options options = Options::full();
    options.jobs = 4;
    options.deterministic = deterministic;
    options.hash_states = true;
    options.visited_max = 8;
    const DfsResult r = analyze_parallel(spec, trace, options);
    EXPECT_EQ(r.verdict, Verdict::Invalid)
        << "deterministic=" << deterministic;
  }
}

TEST(AnalyzeBatch, ResultsComeBackInInputOrder) {
  est::Spec spec = tp0_spec();
  std::vector<tr::Trace> corpus;
  std::vector<Verdict> expected;
  for (int i = 0; i < 6; ++i) {
    const bool invalid = i % 2 == 1;
    corpus.push_back(invalid ? branching_invalid_trace(spec, 3 + i)
                             : sim::tp0_paper_trace(spec, 3 + i));
    expected.push_back(invalid ? Verdict::Invalid : Verdict::Valid);
  }
  for (int jobs : {1, 4}) {
    Options options = Options::full();
    options.jobs = jobs;
    const std::vector<BatchItemResult> results =
        analyze_batch(spec, corpus, options);
    ASSERT_EQ(results.size(), corpus.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].error.empty()) << results[i].error;
      EXPECT_EQ(results[i].result.verdict, expected[i])
          << "jobs=" << jobs << " item=" << i;
    }
  }
}

TEST(AnalyzeBatch, PerItemErrorsDoNotKillTheBatch) {
  est::Spec spec = tp0_spec();
  std::vector<tr::Trace> corpus;
  corpus.push_back(sim::tp0_paper_trace(spec, 3));
  corpus.push_back(sim::tp0_paper_trace(spec, 4));

  Options options = Options::full();
  options.jobs = 2;
  // Disabling an ip the traces record inputs at makes validation throw for
  // every item; the batch must survive and report the error per item.
  options.disabled_ips.push_back("u");
  const std::vector<BatchItemResult> results =
      analyze_batch(spec, corpus, options);
  ASSERT_EQ(results.size(), 2u);
  for (const BatchItemResult& r : results) {
    EXPECT_FALSE(r.error.empty());
  }
}

}  // namespace
}  // namespace tango::core
