// Satellite of the observability PR: committed JSONL event goldens for
// three small specifications. The comparison is canonical-JSON per line —
// field order in the writer may change freely; any semantic change to the
// stream (new events, renamed fields, different hashes) must show up as a
// reviewed golden diff. Regenerate with:
//   TANGO_UPDATE_GOLDENS=1 ctest -R ObsGolden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dfs.hpp"
#include "obs/json.hpp"
#include "obs/stream.hpp"
#include "obs/sink.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return "";
  std::stringstream ss;
  ss << file.rdbuf();
  return ss.str();
}

std::vector<std::string> nonblank_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Records the DFS event stream for one builtin spec against one committed
/// trace fixture.
std::string record_stream(const std::string& spec_name,
                          const std::string& trace_file,
                          const core::Options& preset) {
  est::Spec spec = est::compile_spec(specs::builtin_spec(spec_name));
  tr::Trace trace = tr::parse_trace(
      spec, read_file(std::string(TANGO_TRACES_DIR) + "/" + trace_file));
  MemorySink sink;
  sink.set_refs("builtin:" + spec_name, trace_file);
  core::Options options = preset;
  options.sink = &sink;
  core::DfsResult r = core::analyze(spec, trace, options);
  EXPECT_EQ(r.verdict, core::Verdict::Valid) << spec_name;
  std::ostringstream os;
  for (const Event& e : sink.events()) os << to_jsonl(e) << '\n';
  return os.str();
}

void compare_with_golden(const std::string& recorded,
                         const std::string& golden_name) {
  const std::string path =
      std::string(TANGO_OBS_GOLDEN_DIR) + "/" + golden_name;

  // The recorded stream must always be schema-clean, golden or not.
  std::vector<ReadError> errors = read_events(recorded).errors;
  ASSERT_TRUE(errors.empty())
      << golden_name << ": " << errors.front().line << ": "
      << errors.front().message;

  if (std::getenv("TANGO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream(path, std::ios::binary) << recorded;
    GTEST_SKIP() << "golden rewritten: " << path;
  }

  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing golden " << path
                               << " (set TANGO_UPDATE_GOLDENS=1 to create)";

  // The committed file must itself satisfy the schema — a hand-edited
  // golden can not smuggle an invalid stream past the validator.
  EXPECT_TRUE(read_events(golden).errors.empty())
      << "golden violates schema";

  const std::vector<std::string> got = nonblank_lines(recorded);
  const std::vector<std::string> want = nonblank_lines(golden);
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    std::string got_canon;
    std::string want_canon;
    ASSERT_NO_THROW(got_canon = canonical(parse_json(got[i])))
        << golden_name << " line " << i + 1;
    ASSERT_NO_THROW(want_canon = canonical(parse_json(want[i])))
        << golden_name << " line " << i + 1;
    ASSERT_EQ(got_canon, want_canon)
        << golden_name << ": first difference at line " << i + 1;
  }
  EXPECT_EQ(got.size(), want.size()) << golden_name << ": length differs";
}

TEST(ObsGolden, AckPaperTraceNR) {
  // Paper §3.1 trace under the no-reordering preset: the backtracking run
  // of Figure 1.
  compare_with_golden(
      record_stream("ack", "ack_paper.tr", core::Options::none()),
      "ack_paper_nr.jsonl");
}

TEST(ObsGolden, AbpValidTraceIO) {
  compare_with_golden(
      record_stream("abp", "abp_valid.tr", core::Options::io()),
      "abp_valid_io.jsonl");
}

TEST(ObsGolden, Tp0ValidTraceFullHashed) {
  // FULL ordering with §4.2 state hashing on, so the golden pins the
  // prune.visited / checkpoint event shapes too.
  core::Options options = core::Options::full();
  options.hash_states = true;
  compare_with_golden(record_stream("tp0", "tp0_valid.tr", options),
                      "tp0_valid_full_hash.jsonl");
}

}  // namespace
}  // namespace tango::obs
