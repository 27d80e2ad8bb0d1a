#include "core/governor.hpp"

#include <ctime>

#include "core/fault.hpp"

namespace tango::core {

namespace {

std::uint64_t mono_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

ResourceGovernor::ResourceGovernor(const Options& options)
    : max_memory_(options.max_memory) {
  if (options.deadline_ms != 0) {
    deadline_ns_ = mono_now_ns() + options.deadline_ms * 1'000'000;
  }
}

bool ResourceGovernor::deadline_expired() {
  if (deadline_ns_ == 0) return false;
  if (fault_probe(FaultSite::Deadline)) return true;
  if (until_sample_-- != 0) return false;
  until_sample_ = kDeadlineStride - 1;
  return mono_now_ns() >= deadline_ns_;
}

InconclusiveReason ResourceGovernor::check(std::uint64_t memory) {
  if (max_memory_ != 0 && memory > max_memory_) {
    return InconclusiveReason::Memory;
  }
  if (deadline_expired()) return InconclusiveReason::Deadline;
  return InconclusiveReason::None;
}

InconclusiveReason exceeded_budget(const Options& options,
                                   ResourceGovernor& governor,
                                   const Stats& stats,
                                   std::uint64_t memory) {
  if (options.max_transitions != 0 &&
      stats.transitions_executed >= options.max_transitions) {
    return InconclusiveReason::Transitions;
  }
  return governor.armed() ? governor.check(memory) : InconclusiveReason::None;
}

}  // namespace tango::core
