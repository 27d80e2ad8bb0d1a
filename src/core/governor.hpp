// Cooperative resource governance (docs/ROBUSTNESS.md): the wall-clock
// deadline (Options::deadline_ms) and the checkpoint/heap byte budget
// (Options::max_memory) every engine checks at generate/backtrack
// boundaries. Exceeding either turns the verdict Inconclusive with a
// structured reason ("deadline" / "memory") instead of running away.
//
// The memory budget is enforced over a deterministic byte charge, not
// process RSS. Each engine charges what it holds at the moment of the
// check. The static DFS charges the undo entries or snapshots its live
// marks keep (Checkpointer::live_bytes) plus its live stack frames and the
// firings they still hold. MDFS charges its stack slots plus the nodes
// that still own a state (OnlineAnalyzer::held_bytes). Both figures go
// down as the search backtracks. The charge is a pure function of the
// search, so it trips at the same point on every run and per task in
// --deterministic mode. The deadline is inherently wall-clock; the clock
// is sampled on the first check and every kDeadlineStride-th thereafter
// to keep the syscall off the hot path.
#pragma once

#include <cstdint>

#include "core/options.hpp"
#include "core/stats.hpp"
#include "core/verdict.hpp"

namespace tango::core {

class ResourceGovernor {
 public:
  /// Checks between clock samples; one sample costs a clock_gettime.
  static constexpr std::uint32_t kDeadlineStride = 64;

  /// Captures the absolute deadline at construction — construct once per
  /// analysis (the batch front-end constructs per item, which is what
  /// makes the deadline per-item). Copyable: parallel workers copy the
  /// engine's governor so every task races the same absolute deadline.
  explicit ResourceGovernor(const Options& options);

  /// The first exceeded budget with `memory` bytes charged, or None while
  /// within both. Memory is checked before the deadline so mixed trips
  /// report deterministically.
  [[nodiscard]] InconclusiveReason check(std::uint64_t memory);

  /// True when a deadline is armed and has passed. Samples the clock on
  /// the first call and then every kDeadlineStride calls; a fault-injected
  /// deadline (FaultSite::Deadline) fires on any call while armed.
  [[nodiscard]] bool deadline_expired();

  [[nodiscard]] bool armed() const {
    return deadline_ns_ != 0 || max_memory_ != 0;
  }

 private:
  std::uint64_t deadline_ns_ = 0;  // absolute CLOCK_MONOTONIC; 0 = no limit
  std::uint64_t max_memory_ = 0;   // bytes; 0 = no limit
  std::uint32_t until_sample_ = 0;
};

/// The budget check a search makes at each generate/backtrack boundary:
/// the transition budget over its own counters, then the governor's
/// memory budget against the `memory` bytes it charges, then the
/// deadline. None while within all three.
[[nodiscard]] InconclusiveReason exceeded_budget(const Options& options,
                                                 ResourceGovernor& governor,
                                                 const Stats& stats,
                                                 std::uint64_t memory);

}  // namespace tango::core
