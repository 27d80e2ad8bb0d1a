// Unit coverage for the fault-injection hook itself (src/core/fault.hpp):
// the spec grammar, per-site probe counters, Nth-probe entries, scope
// matching, and malformed-spec rejection. Everything here skips in NDEBUG
// builds, where the probes compile to constant false.
#include "core/fault.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace tango::core {
namespace {

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFaultInjectionAvailable) {
      GTEST_SKIP() << "fault injection is compiled out in NDEBUG builds";
    }
    FaultInjector::instance().reset();
  }
  void TearDown() override {
    if (kFaultInjectionAvailable) FaultInjector::instance().reset();
  }
};

TEST_F(FaultInjectorTest, DisarmedProbesNeverFire) {
  auto& fi = FaultInjector::instance();
  EXPECT_FALSE(fi.armed());
  EXPECT_FALSE(fi.should_fire(FaultSite::Alloc));
  EXPECT_FALSE(fi.should_fire(FaultSite::Deadline));
  // Disarmed probes bail before the counter: the hot path costs one load.
  EXPECT_EQ(fi.probes(FaultSite::Alloc), 0u);
  EXPECT_EQ(fi.probes(FaultSite::Deadline), 0u);
}

TEST_F(FaultInjectorTest, BareSiteFiresEveryProbeOfThatSiteOnly) {
  auto& fi = FaultInjector::instance();
  fi.configure("deadline");
  EXPECT_TRUE(fi.armed());
  EXPECT_TRUE(fi.should_fire(FaultSite::Deadline));
  EXPECT_TRUE(fi.should_fire(FaultSite::Deadline));
  EXPECT_FALSE(fi.should_fire(FaultSite::Alloc));
}

TEST_F(FaultInjectorTest, CountedEntryFiresOnlyTheNthProbe) {
  auto& fi = FaultInjector::instance();
  fi.configure("alloc:3");
  EXPECT_FALSE(fi.should_fire(FaultSite::Alloc));
  EXPECT_FALSE(fi.should_fire(FaultSite::Alloc));
  EXPECT_TRUE(fi.should_fire(FaultSite::Alloc));
  EXPECT_FALSE(fi.should_fire(FaultSite::Alloc));
  EXPECT_EQ(fi.probes(FaultSite::Alloc), 4u);
}

TEST_F(FaultInjectorTest, ScopedEntryFiresOnlyInsideItsScope) {
  auto& fi = FaultInjector::instance();
  fi.configure("deadline@item:2");
  EXPECT_FALSE(fi.should_fire(FaultSite::Deadline));  // no scope installed
  {
    FaultScope scope("item:1");
    EXPECT_FALSE(fi.should_fire(FaultSite::Deadline));
  }
  {
    FaultScope scope("item:2");
    EXPECT_EQ(FaultScope::current(), "item:2");
    EXPECT_TRUE(fi.should_fire(FaultSite::Deadline));
  }
  EXPECT_EQ(FaultScope::current(), "");
  EXPECT_FALSE(fi.should_fire(FaultSite::Deadline));
}

TEST_F(FaultInjectorTest, ScopesNestAndRestore) {
  FaultScope outer("item:0");
  {
    FaultScope inner("item:7");
    EXPECT_EQ(FaultScope::current(), "item:7");
  }
  EXPECT_EQ(FaultScope::current(), "item:0");
}

TEST_F(FaultInjectorTest, CommaListArmsSeveralEntries) {
  auto& fi = FaultInjector::instance();
  fi.configure("alloc:1,deadline");
  EXPECT_TRUE(fi.should_fire(FaultSite::Alloc));
  EXPECT_FALSE(fi.should_fire(FaultSite::Alloc));
  EXPECT_TRUE(fi.should_fire(FaultSite::Deadline));
}

TEST_F(FaultInjectorTest, ConfigureResetsCounters) {
  auto& fi = FaultInjector::instance();
  fi.configure("alloc:2");
  EXPECT_FALSE(fi.should_fire(FaultSite::Alloc));
  fi.configure("alloc:2");  // counter restarts: first probe is #1 again
  EXPECT_FALSE(fi.should_fire(FaultSite::Alloc));
  EXPECT_TRUE(fi.should_fire(FaultSite::Alloc));
}

TEST_F(FaultInjectorTest, MalformedSpecsAreRejected) {
  auto& fi = FaultInjector::instance();
  EXPECT_THROW(fi.configure("bogus-site"), std::invalid_argument);
  EXPECT_THROW(fi.configure("alloc:"), std::invalid_argument);
  EXPECT_THROW(fi.configure("alloc:0"), std::invalid_argument);
  EXPECT_THROW(fi.configure("alloc:notanumber"), std::invalid_argument);
  EXPECT_THROW(fi.configure("@scope"), std::invalid_argument);
  EXPECT_THROW(fi.configure("trace-read"), std::invalid_argument);
  // A rejected spec must not leave a half-armed injector behind.
  fi.configure("deadline");
  EXPECT_THROW(fi.configure("nope"), std::invalid_argument);
  EXPECT_TRUE(fi.should_fire(FaultSite::Deadline));
}

}  // namespace
}  // namespace tango::core
