// Allocation budget of the search's transition executions. The binary
// replaces the global operator new with a counting one, runs whole
// analyses and checks that heap allocations per transition execution (TE)
// stay at or below pinned bounds. Reading a variable must not copy its
// aggregate, a vetoed output must not build an exception or a sentence
// nobody keeps, an output's parameters and a call's frame must not get
// vectors of their own, and generate must reuse spent firing lists, so a
// change that brings back a per-fire allocation fails here
// deterministically, where a timing would only drift.
//
// Label `perf`: outside the sanitizer jobs, whose runtimes allocate on
// their own account.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/dfs.hpp"
#include "core/mdfs.hpp"
#include "sim/mutate.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"

namespace {
std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Every non-aligned form, so that each allocation is counted once and
// freed by its own kind.
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tango::core {
namespace {

// Pinned from the measured counts with about 2% headroom (GCC 12.2,
// libstdc++, RelWithDebInfo): 3.70 allocations per TE on LAPD, 3.31 on
// TP0 and 2.81 for the on-line engine's run on LAPD. They were 8.34, 7.69
// and 7.44 while every veto formatted its sentence and outputs, frames and
// firing lists had vectors of their own, and LAPD and TP0 were 15.00 and
// 10.94 while every read copied its whole aggregate.
constexpr double kLapdBound = 3.78;
constexpr double kTp0Bound = 3.38;
constexpr double kMdfsLapdBound = 2.87;

struct Budget {
  long allocations = 0;
  std::uint64_t te = 0;
  Verdict verdict = Verdict::Inconclusive;
  [[nodiscard]] double per_te() const {
    return static_cast<double>(allocations) / static_cast<double>(te);
  }
};

void report(const Budget& b) {
  std::printf("allocations %ld, TE %llu, per TE %.2f\n", b.allocations,
              static_cast<unsigned long long>(b.te), b.per_te());
}

/// Allocations made by one analysis (spec and trace are built before).
Budget measure(const est::Spec& spec, const tr::Trace& trace,
               const Options& options) {
  const long before = g_allocations.load();
  const DfsResult r = analyze(spec, trace, options);
  Budget b;
  b.allocations = g_allocations.load() - before;
  b.te = r.stats.transitions_executed;
  b.verdict = r.verdict;
  report(b);
  return b;
}

TEST(FireBudget, LapdFullAt200Rounds) {
  // Valid linear trace: every TE is a successful fire through LAPD's
  // record and array state (the send window `pend[phead]`).
  const est::Spec lapd = est::compile_spec(specs::lapd());
  const Budget b = measure(lapd, sim::lapd_trace(lapd, 200), Options::full());
  EXPECT_EQ(b.verdict, Verdict::Valid);
  ASSERT_GT(b.te, 0u);
  EXPECT_LE(b.per_te(), kLapdBound) << b.allocations << " over " << b.te;
}

TEST(FireBudget, Tp0EditedN3Io) {
  // Figure 4's invalid trace: a large share of the TEs end in a vetoed
  // output.
  const est::Spec tp0 = est::compile_spec(specs::tp0());
  const Budget b =
      measure(tp0, sim::mutate_last_output_param(sim::tp0_paper_trace(tp0, 3)),
              Options::io());
  EXPECT_EQ(b.verdict, Verdict::Invalid);
  ASSERT_GT(b.te, 0u);
  EXPECT_LE(b.per_te(), kTp0Bound) << b.allocations << " over " << b.te;
}

TEST(FireBudget, MdfsLapdFull) {
  // The on-line engine, which `tango serve` runs: the whole valid trace
  // and its eof marker are queued before the analyzer starts, and the
  // count covers the run (reading the queued events, then the search).
  // Its veto notes are never read, so its matcher formats none.
  const est::Spec lapd = est::compile_spec(specs::lapd());
  const tr::Trace trace = sim::lapd_trace(lapd, 200);
  tr::MemoryFeed feed(lapd);
  for (const tr::TraceEvent& e : trace.events()) feed.push(e);
  feed.push_eof();
  OnlineConfig config;
  config.options = Options::full();

  OnlineAnalyzer analyzer(lapd, feed, config);  // static analysis: outside
  const long before = g_allocations.load();
  const OnlineStatus status = analyzer.run();
  Budget b;
  b.allocations = g_allocations.load() - before;
  b.te = analyzer.stats().transitions_executed;
  report(b);
  EXPECT_EQ(status, OnlineStatus::Valid);
  ASSERT_GT(b.te, 0u);
  EXPECT_LE(b.per_te(), kMdfsLapdBound) << b.allocations << " over " << b.te;
}

}  // namespace
}  // namespace tango::core
