// Incremental-vs-full hashing differential: the full recursive walk
// (HashImpl::Full) is the oracle for the trail-maintained incremental
// hash (HashImpl::Incremental, the default). The two implementations must
// be BIT-IDENTICAL, not merely consistent — the visited table persists
// hashes across a whole run, obs streams record them, and DESIGN.md §4's
// permutation-invariance contract is stated over hash values. So over
// every golden trace under traces/ (and, under hash-dfs, §4.2's edited
// TP0 traces for n=2..4), each engine × order-preset cell must
// produce the same verdict, the same Figure-3 counters (TE/GE/RE/SA), the
// same pruned_by_hash count, and — for the deterministic engines — a
// byte-identical search-event stream, state_hash fields included.
//
// (Debug builds additionally assert incremental == full on every single
// hash taken, inside core::state_hash; this test is the Release-mode net,
// where NDEBUG compiles that assert out.)
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dfs.hpp"
#include "estelle/spec.hpp"
#include "fuzz/differential.hpp"
#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "sim/mutate.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango::fuzz {
namespace {

struct Golden {
  const char* trace_file;
  const char* spec;
  bool initial_state_search;
};

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> g = {
      {"abp_valid.tr", "abp", false},   {"abp_invalid.tr", "abp", false},
      {"ack_paper.tr", "ack", false},   {"inres_valid.tr", "inres", false},
      {"tp0_valid.tr", "tp0", false},   {"lapd_midstream.tr", "lapd", true},
  };
  return g;
}

tr::Trace load_trace(const est::Spec& spec, const Golden& golden) {
  std::ifstream file(std::string(TANGO_TRACES_DIR) + "/" + golden.trace_file);
  EXPECT_TRUE(file.good()) << golden.trace_file;
  std::stringstream text;
  text << file.rdbuf();
  return tr::parse_trace(spec, text.str());
}

MatrixResult matrix_for(const est::Spec& spec, const tr::Trace& trace,
                        bool initial_state_search, core::HashImpl impl,
                        const std::vector<Engine>& engines) {
  core::Options base = core::Options::none();
  base.max_transitions = 200'000;
  base.initial_state_search = initial_state_search;
  base.hash_impl = impl;
  return run_matrix(spec, trace, engines, base, /*chunk=*/3);
}

MatrixResult matrix_for(const Golden& golden, core::HashImpl impl,
                        const std::vector<Engine>& engines) {
  est::Spec spec = est::compile_spec(specs::builtin_spec(golden.spec));
  return matrix_for(spec, load_trace(spec, golden),
                    golden.initial_state_search, impl, engines);
}

void expect_identical_search(const EngineRun& full, const EngineRun& inc,
                             const std::string& context) {
  EXPECT_EQ(full.verdict, inc.verdict) << context;
  EXPECT_EQ(full.stats.transitions_executed,
            inc.stats.transitions_executed) << context;  // TE
  EXPECT_EQ(full.stats.generates, inc.stats.generates) << context;  // GE
  EXPECT_EQ(full.stats.restores, inc.stats.restores) << context;    // RE
  EXPECT_EQ(full.stats.saves, inc.stats.saves) << context;          // SA
  // Identical hash values => identical visited-table behaviour. Any
  // divergence here means the incremental path produced a different hash
  // for some state than the full walk would have.
  EXPECT_EQ(full.stats.pruned_by_hash, inc.stats.pruned_by_hash) << context;
  EXPECT_EQ(full.stats.fanout_sum, inc.stats.fanout_sum) << context;
  EXPECT_EQ(full.stats.max_depth, inc.stats.max_depth) << context;
}

/// Every engine x order-preset cell of `trace` under both impls.
void expect_cells_agree(const std::string& name, const est::Spec& spec,
                        const tr::Trace& trace, bool initial_state_search,
                        const std::vector<Engine>& engines) {
  const MatrixResult full = matrix_for(spec, trace, initial_state_search,
                                       core::HashImpl::Full, engines);
  const MatrixResult inc = matrix_for(spec, trace, initial_state_search,
                                      core::HashImpl::Incremental, engines);
  ASSERT_EQ(full.columns.size(), inc.columns.size());
  for (std::size_t c = 0; c < full.columns.size(); ++c) {
    ASSERT_EQ(full.columns[c].runs.size(), inc.columns[c].runs.size());
    for (std::size_t r = 0; r < full.columns[c].runs.size(); ++r) {
      const EngineRun& fr = full.columns[c].runs[r];
      const EngineRun& ir = inc.columns[c].runs[r];
      ASSERT_EQ(fr.engine, ir.engine);
      expect_identical_search(fr, ir,
                              name + " order=" + full.columns[c].order +
                                  " engine=" +
                                  std::string(to_string(fr.engine)));
    }
  }
}

// The goldens under every engine, plus §4.2's edited TP0 traces under
// hash-dfs: their exponentially many interleavings reconverge, so the
// visited table prunes, and a hash that differs between the impls shows
// in pruned_by_hash and TE. (Without hashing the impl is never consulted,
// and the n=4 tree runs 10M TE.)
TEST(HashImplDiff, GoldenTracesAgreeCellByCell) {
  for (const Golden& golden : goldens()) {
    est::Spec spec = est::compile_spec(specs::builtin_spec(golden.spec));
    expect_cells_agree(golden.trace_file, spec, load_trace(spec, golden),
                       golden.initial_state_search,
                       {Engine::Dfs, Engine::HashDfs, Engine::Mdfs});
  }
  est::Spec tp0 = est::compile_spec(specs::tp0());
  for (const int n : {2, 3, 4}) {
    expect_cells_agree(
        "tp0_edited_n" + std::to_string(n), tp0,
        sim::mutate_last_output_param(sim::tp0_paper_trace(tp0, n)), false,
        {Engine::HashDfs});
  }
}

TEST(HashImplDiff, ParallelEngineVerdictsAgree) {
  // ParDfs counters are schedule-dependent, so only the verdicts (and the
  // within-matrix agreement relation) are comparable across impls.
  for (const Golden& golden : goldens()) {
    const MatrixResult full =
        matrix_for(golden, core::HashImpl::Full, {Engine::ParDfs});
    const MatrixResult inc =
        matrix_for(golden, core::HashImpl::Incremental, {Engine::ParDfs});
    ASSERT_EQ(full.columns.size(), inc.columns.size());
    for (std::size_t c = 0; c < full.columns.size(); ++c) {
      EXPECT_TRUE(full.columns[c].agreed) << full.columns[c].disagreement;
      EXPECT_TRUE(inc.columns[c].agreed) << inc.columns[c].disagreement;
      ASSERT_EQ(full.columns[c].runs.size(), inc.columns[c].runs.size());
      for (std::size_t r = 0; r < full.columns[c].runs.size(); ++r) {
        EXPECT_EQ(full.columns[c].runs[r].verdict,
                  inc.columns[c].runs[r].verdict)
            << golden.trace_file << " order=" << full.columns[c].order;
      }
    }
  }
}

TEST(HashImplDiff, EventStreamsAreByteIdentical) {
  // The obs stream records state_hash on every enter event. A DFS run is
  // deterministic, so the two impls must serialize the exact same JSONL —
  // the strongest statement that the hash VALUES (not just the search
  // shape) coincide.
  for (const Golden& golden : goldens()) {
    std::string streams[2];
    const core::HashImpl impls[2] = {core::HashImpl::Full,
                                     core::HashImpl::Incremental};
    for (int i = 0; i < 2; ++i) {
      est::Spec spec = est::compile_spec(specs::builtin_spec(golden.spec));
      tr::Trace trace = load_trace(spec, golden);
      core::Options options = core::Options::none();
      options.max_transitions = 200'000;
      options.initial_state_search = golden.initial_state_search;
      options.hash_states = true;  // exercise the visited table too
      options.hash_impl = impls[i];
      obs::MemorySink sink;
      options.sink = &sink;
      (void)core::analyze(spec, trace, options);
      std::ostringstream os;
      for (const obs::Event& e : sink.events()) {
        os << obs::to_jsonl(e) << '\n';
      }
      streams[i] = os.str();
    }
    EXPECT_FALSE(streams[0].empty()) << golden.trace_file;
    EXPECT_EQ(streams[0], streams[1]) << golden.trace_file;
  }
}

}  // namespace
}  // namespace tango::fuzz
