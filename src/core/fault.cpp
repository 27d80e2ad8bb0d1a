#include "core/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "support/text.hpp"

namespace tango::core {

namespace {

struct Entry {
  FaultSite site = FaultSite::Alloc;
  std::string scope;       // "" = any scope
  std::uint64_t nth = 0;   // 0 = every probe; else fire at this count only
};

bool parse_site(std::string_view name, FaultSite& out) {
  for (const FaultSite s : {FaultSite::Alloc, FaultSite::Deadline}) {
    if (to_string(s) == name) {
      out = s;
      return true;
    }
  }
  return false;
}

thread_local std::string tl_scope;  // NOLINT(cert-err58-cpp)

}  // namespace

struct FaultInjector::Impl {
  mutable std::mutex mu;
  std::vector<Entry> entries;
  std::atomic<std::uint64_t> counters[kFaultSiteCount] = {};
  std::atomic<bool> armed{false};
};

FaultInjector::FaultInjector() : impl_(new Impl) {
  const char* env = std::getenv("TANGO_FAULT_INJECT");
  if (env != nullptr && *env != '\0') configure(env);
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(std::string_view spec) {
  std::vector<Entry> entries;
  for (std::string_view part : split(spec, ',')) {
    part = trim(part);
    if (part.empty()) continue;
    Entry e;
    std::string_view site = part;
    const std::size_t at = part.find('@');
    const std::size_t colon = part.find(':');
    if (at != std::string_view::npos) {
      site = part.substr(0, at);
      e.scope = std::string(part.substr(at + 1));
      if (e.scope.empty()) {
        throw std::invalid_argument("fault spec '" + std::string(part) +
                                    "': empty scope");
      }
    } else if (colon != std::string_view::npos) {
      site = part.substr(0, colon);
      const std::string num(part.substr(colon + 1));
      char* end = nullptr;
      e.nth = std::strtoull(num.c_str(), &end, 10);
      if (num.empty() || end != num.c_str() + num.size() || e.nth == 0) {
        throw std::invalid_argument("fault spec '" + std::string(part) +
                                    "': expected a positive probe index");
      }
    }
    if (!parse_site(site, e.site)) {
      throw std::invalid_argument("fault spec '" + std::string(part) +
                                  "': unknown site '" + std::string(site) +
                                  "' (alloc, deadline)");
    }
    entries.push_back(std::move(e));
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->entries = std::move(entries);
  for (auto& c : impl_->counters) c.store(0, std::memory_order_relaxed);
  impl_->armed.store(!impl_->entries.empty(), std::memory_order_release);
}

bool FaultInjector::should_fire(FaultSite site) {
  if (!impl_->armed.load(std::memory_order_acquire)) return false;
  const std::uint64_t count =
      impl_->counters[static_cast<std::size_t>(site)].fetch_add(
          1, std::memory_order_relaxed) +
      1;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const Entry& e : impl_->entries) {
    if (e.site != site) continue;
    if (!e.scope.empty() && e.scope != tl_scope) continue;
    if (e.nth != 0 && e.nth != count) continue;
    return true;
  }
  return false;
}

std::uint64_t FaultInjector::probes(FaultSite site) const {
  return impl_->counters[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

bool FaultInjector::armed() const {
  return impl_->armed.load(std::memory_order_acquire);
}

FaultScope::FaultScope(std::string scope) : previous_(std::move(tl_scope)) {
  tl_scope = std::move(scope);
}

FaultScope::~FaultScope() { tl_scope = std::move(previous_); }

const std::string& FaultScope::current() { return tl_scope; }

}  // namespace tango::core
