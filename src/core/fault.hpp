// Debug-build fault injection (docs/ROBUSTNESS.md). The degradation paths
// of the resource governor and the batch front-end — allocation failure,
// deadline expiry — are unreachable on healthy inputs, so tests and CI
// seed this hook to force them at chosen points.
//
// Disabled entirely in NDEBUG builds: every probe compiles to `false` with
// no singleton access, so release binaries carry no injection surface.
//
// Spec grammar (env TANGO_FAULT_INJECT, or FaultInjector::configure):
//   spec   := entry (',' entry)*
//   entry  := site               fire at every probe of that site
//           | site '@' scope     fire at every probe within that scope
//           | site ':' N         fire at the Nth probe of that site (1-based)
//   site   := alloc | deadline
// Scopes are thread-local strings installed with FaultScope; analyze_batch
// wraps item i in scope "item:<i>", so "deadline@item:2" forces only the
// third corpus entry over its deadline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tango::core {

enum class FaultSite : std::uint8_t { Alloc, Deadline };

inline constexpr std::size_t kFaultSiteCount = 2;

[[nodiscard]] constexpr std::string_view to_string(FaultSite s) {
  switch (s) {
    case FaultSite::Alloc: return "alloc";
    case FaultSite::Deadline: return "deadline";
  }
  return "?";
}

#ifndef NDEBUG
inline constexpr bool kFaultInjectionAvailable = true;
#else
inline constexpr bool kFaultInjectionAvailable = false;
#endif

class FaultInjector {
 public:
  /// Process-wide instance; first access seeds it from TANGO_FAULT_INJECT.
  static FaultInjector& instance();

  /// Replaces the active spec (tests). Throws std::invalid_argument on a
  /// malformed spec. An empty spec disables every site and resets counters.
  void configure(std::string_view spec);

  /// Disables every entry and zeroes the per-site probe counters.
  void reset() { configure(""); }

  /// One probe: counts it and reports whether a configured entry fires
  /// here. Thread-safe; scope matching reads the calling thread's scope.
  [[nodiscard]] bool should_fire(FaultSite site);

  /// Probes counted for `site` since the last configure/reset.
  [[nodiscard]] std::uint64_t probes(FaultSite site) const;

  [[nodiscard]] bool armed() const;

 private:
  FaultInjector();
  struct Impl;
  Impl* impl_;  // leaked singleton state; never destroyed
};

/// RAII thread-local scope label for `site@scope` entries. analyze_batch
/// installs "item:<index>" around each corpus entry.
class FaultScope {
 public:
  explicit FaultScope(std::string scope);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  /// The calling thread's active scope ("" when none).
  [[nodiscard]] static const std::string& current();

 private:
  std::string previous_;
};

/// The probe the instrumented sites call. In NDEBUG builds this is a
/// constant false — no singleton, no env read, no counters.
[[nodiscard]] inline bool fault_probe(FaultSite site) {
#ifndef NDEBUG
  return FaultInjector::instance().should_fire(site);
#else
  (void)site;
  return false;
#endif
}

}  // namespace tango::core
