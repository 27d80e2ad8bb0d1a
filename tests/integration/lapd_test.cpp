// LAPD (Q.921 subset) integration tests mirroring the paper's §4.1
// experiment: traces that differ in the number of user data packets,
// analyzed under the four order-checking modes.
#include <gtest/gtest.h>

#include <set>

#include "core/dfs.hpp"
#include "sim/mutate.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango::core {
namespace {

class LapdTest : public ::testing::Test {
 protected:
  est::Spec spec = est::compile_spec(specs::lapd());
};

TEST_F(LapdTest, LinkEstablishmentAndRelease) {
  const char* trace =
      "in  u.dl_establish_req\n"
      "out l.sabme\n"
      "in  l.ua\n"
      "out u.dl_establish_cnf\n"
      "in  u.dl_release_req\n"
      "out l.disc\n"
      "in  l.ua\n"
      "out u.dl_release_cnf\n";
  EXPECT_EQ(analyze_text(spec, trace, Options::full()).verdict,
            Verdict::Valid);
}

TEST_F(LapdTest, PassiveEstablishment) {
  const char* trace =
      "in  l.sabme\n"
      "out l.ua\n"
      "out u.dl_establish_ind\n";
  EXPECT_EQ(analyze_text(spec, trace, Options::full()).verdict,
            Verdict::Valid);
}

TEST_F(LapdTest, DataTransferWithSequenceNumbers) {
  const char* trace =
      "in  u.dl_establish_req\n"
      "out l.sabme\n"
      "in  l.ua\n"
      "out u.dl_establish_cnf\n"
      "in  u.dl_data_req(42)\n"
      "out l.iframe(0, 0, 42)\n"
      "in  l.rr(1)\n"
      "in  u.dl_data_req(43)\n"
      "out l.iframe(1, 0, 43)\n"
      "in  l.rr(2)\n";
  EXPECT_EQ(analyze_text(spec, trace, Options::full()).verdict,
            Verdict::Valid);
}

TEST_F(LapdTest, WrongSequenceNumberIsInvalid) {
  const char* trace =
      "in  u.dl_establish_req\n"
      "out l.sabme\n"
      "in  l.ua\n"
      "out u.dl_establish_cnf\n"
      "in  u.dl_data_req(42)\n"
      "out l.iframe(3, 0, 42)\n";  // N(S) must be 0 on a fresh link
  EXPECT_EQ(analyze_text(spec, trace, Options::io()).verdict,
            Verdict::Invalid);
}

TEST_F(LapdTest, IncomingIFrameDeliveryAndAck) {
  const char* trace =
      "in  l.sabme\n"
      "out l.ua\n"
      "out u.dl_establish_ind\n"
      "in  l.iframe(0, 0, 7)\n"
      "out u.dl_data_ind(7)\n"
      "out l.rr(1)\n"
      "in  l.iframe(1, 0, 8)\n"
      "out u.dl_data_ind(8)\n"
      "out l.rr(2)\n";
  EXPECT_EQ(analyze_text(spec, trace, Options::full()).verdict,
            Verdict::Valid);
}

TEST_F(LapdTest, OutOfSequenceIFrameTriggersReject) {
  const char* trace =
      "in  l.sabme\n"
      "out l.ua\n"
      "out u.dl_establish_ind\n"
      "in  l.iframe(3, 0, 9)\n"  // expected N(S)=0
      "out l.rej(0)\n";
  EXPECT_EQ(analyze_text(spec, trace, Options::full()).verdict,
            Verdict::Valid);
}

TEST_F(LapdTest, RejTriggersGoBackNRetransmission) {
  const char* trace =
      "in  u.dl_establish_req\n"
      "out l.sabme\n"
      "in  l.ua\n"
      "out u.dl_establish_cnf\n"
      "in  u.dl_data_req(10)\n"
      "out l.iframe(0, 0, 10)\n"
      "in  u.dl_data_req(11)\n"
      "out l.iframe(1, 0, 11)\n"
      "in  l.rej(0)\n"
      "out l.iframe(0, 0, 10)\n"  // go-back-N: both frames again
      "out l.iframe(1, 0, 11)\n";
  EXPECT_EQ(analyze_text(spec, trace, Options::io()).verdict, Verdict::Valid);
}

TEST_F(LapdTest, PeerBusyStopsTransmission) {
  const char* trace =
      "in  u.dl_establish_req\n"
      "out l.sabme\n"
      "in  l.ua\n"
      "out u.dl_establish_cnf\n"
      "in  l.rnr(0)\n"           // peer receiver not ready
      "in  u.dl_data_req(5)\n";  // enqueued but NOT transmitted
  EXPECT_EQ(analyze_text(spec, trace, Options::io()).verdict, Verdict::Valid);
  // A frame sent despite peer_busy is a violation.
  const std::string bad = std::string(trace) + "out l.iframe(0, 0, 5)\n";
  EXPECT_EQ(analyze_text(spec, bad, Options::io()).verdict, Verdict::Invalid);
}

TEST_F(LapdTest, GeneratedTracesValidUnderAllModes) {
  for (int di : {2, 5}) {
    tr::Trace trace = sim::lapd_trace(spec, di);
    for (const Options& opts :
         {Options::none(), Options::io(), Options::ip(), Options::full()}) {
      EXPECT_EQ(analyze(spec, trace, opts).verdict, Verdict::Valid)
          << "di=" << di << " mode=" << opts.order_mode_name();
    }
  }
}

TEST_F(LapdTest, SequenceNumbersWrapAroundMod8) {
  tr::Trace trace = sim::lapd_trace(spec, 12);  // wraps past N(S)=7
  DfsResult r = analyze(spec, trace, Options::full());
  EXPECT_EQ(r.verdict, Verdict::Valid);
}

TEST_F(LapdTest, MutatedTraceDetected) {
  tr::Trace bad = sim::mutate_last_output_param(sim::lapd_trace(spec, 4));
  EXPECT_EQ(analyze(spec, bad, Options::full()).verdict, Verdict::Invalid);
}

TEST_F(LapdTest, Figure3ShapeHolds) {
  // Two properties of the Figure 3 table: TE grows with DI, and enabling
  // relative order checking never increases the search.
  std::uint64_t prev_te_full = 0;
  for (int di : {2, 4, 8}) {
    tr::Trace trace = sim::lapd_trace(spec, di);
    DfsResult none = analyze(spec, trace, Options::none());
    DfsResult full = analyze(spec, trace, Options::full());
    ASSERT_EQ(none.verdict, Verdict::Valid);
    ASSERT_EQ(full.verdict, Verdict::Valid);
    EXPECT_LE(full.stats.transitions_executed,
              none.stats.transitions_executed);
    EXPECT_GT(full.stats.transitions_executed, prev_te_full);
    prev_te_full = full.stats.transitions_executed;
  }
  // Nor may the shape depend on the simulator's scheduler seed, which
  // changes the recorded interleaving: at DI=25 each preset gives one TE
  // over seeds 1-5, and every run is valid.
  for (const Options& preset :
       {Options::none(), Options::io(), Options::ip(), Options::full()}) {
    std::set<std::uint64_t> te;
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
      DfsResult r = analyze(spec, sim::lapd_trace(spec, 25, seed), preset);
      EXPECT_EQ(r.verdict, Verdict::Valid) << "seed " << seed;
      te.insert(r.stats.transitions_executed);
    }
    EXPECT_EQ(te.size(), 1u);
  }
}

}  // namespace
}  // namespace tango::core
