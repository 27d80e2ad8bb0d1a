// Pinned search counters for core::analyze: every stored trace under
// traces/ × the four relative-order presets (§2.4.2) × state hashing
// off/on (§4.2), plus the edited TP0 paper trace (§4.2's exponential
// refutation), a few rows clipped by each budget and the paper's Figure 3
// and Figure 4 tables (§4). Each row records the verdict, reason,
// solution and note with TE/GE/RE/SA and the secondary counters, one
// tab-separated line per analysis. Any change to the search order, the
// save/restore discipline, pruning or budget placement shows up as a
// reviewed golden diff.
//
// The on-line MDFS (§3) has its own table: every stored trace × preset,
// fed whole and fed one line per poll, plus a chunked LAPD session, an
// invalid TP0 trace, the paper's Figure 1 and 2 scenarios and the §3.1.3
// node-reordering ablation. Its rows record the final status, reason,
// witness (the verdict event's parent) and TE/GE/RE/SA, fanout_sum and
// max_depth. checkpoint_bytes and trail_entries are left out: they are
// the cost ledger of how states are saved, not what the search does.
// Regenerate both tables with:
//   TANGO_UPDATE_GOLDENS=1 ctest -R PinnedCounters
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dfs.hpp"
#include "core/mdfs.hpp"
#include "obs/sink.hpp"
#include "sim/mutate.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"
#include "trace/trace_io.hpp"

namespace tango::core {
namespace {

const char* const kHeader =
    "case\tverdict\treason\tte\tge\tre\tsa\tpruned\tmax_depth\tstatic_skips"
    "\ttrail_entries\tcheckpoint_bytes\tsolution\tnote";

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream ss;
  ss << file.rdbuf();
  return ss.str();
}

/// Keeps one row per line and the columns tab-separated.
std::string flat(std::string s) {
  std::replace(s.begin(), s.end(), '\t', ' ');
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

std::string row(const std::string& name, const DfsResult& r) {
  const Stats& s = r.stats;
  std::string solution;
  for (const std::string& t : r.solution) {
    solution += (solution.empty() ? "" : " ") + t;
  }
  std::ostringstream os;
  os << name << '\t' << to_string(r.verdict) << '\t' << to_string(r.reason)
     << '\t' << s.transitions_executed << '\t' << s.generates << '\t'
     << s.restores << '\t' << s.saves << '\t' << s.pruned_by_hash << '\t'
     << s.max_depth << '\t' << s.static_skips << '\t' << s.trail_entries
     << '\t' << s.checkpoint_bytes << '\t' << flat(solution) << '\t'
     << flat(r.note);
  return os.str();
}

/// The trace files under traces/, sorted.
std::vector<std::string> stored_traces() {
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(TANGO_TRACES_DIR)) {
    if (e.path().extension() == ".tr") files.push_back(e.path().filename());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// One row per state hashing off/on (§4.2) under `preset`.
void add_hash_rows(std::vector<std::string>& rows, const std::string& name,
                   const est::Spec& spec, const tr::Trace& trace,
                   const Options& preset, bool initial_state_search) {
  for (const bool hash : {false, true}) {
    Options options = preset;
    options.hash_states = hash;
    options.max_transitions = 200'000;
    options.initial_state_search = initial_state_search;
    rows.push_back(
        row(name + (hash ? "/hash" : ""), analyze(spec, trace, options)));
  }
}

/// One row per relative-order preset (§2.4.2) x state hashing off/on.
void add_preset_rows(std::vector<std::string>& rows, const std::string& prefix,
                     const est::Spec& spec, const tr::Trace& trace,
                     bool initial_state_search) {
  for (const auto& [name, preset] :
       {std::pair{"NR", Options::none()}, std::pair{"IO", Options::io()},
        std::pair{"IP", Options::ip()}, std::pair{"FULL", Options::full()}}) {
    add_hash_rows(rows, prefix + "/" + name, spec, trace, preset,
                  initial_state_search);
  }
}

/// The whole table, recorded from the current engine.
std::vector<std::string> record_table() {
  std::vector<std::string> rows{kHeader};

  for (const std::string& file : stored_traces()) {
    // Trace files are named <spec>_<what>.tr after the builtin they test.
    const std::string spec_name = file.substr(0, file.find('_'));
    est::Spec spec = est::compile_spec(specs::builtin_spec(spec_name));
    tr::Trace trace = tr::parse_trace(
        spec, read_file(std::string(TANGO_TRACES_DIR) + "/" + file));
    // A mid-stream capture only matches from a non-initial state.
    add_preset_rows(rows, file, spec, trace, file == "lapd_midstream.tr");
  }

  // §4.2's invalid TP0 trace: its refutation tree is where the search
  // order, restores and pruning all matter.
  est::Spec tp0 = est::compile_spec(specs::tp0());
  const tr::Trace edited =
      sim::mutate_last_output_param(sim::tp0_paper_trace(tp0, 6));
  add_preset_rows(rows, "tp0_edited_n6", tp0, edited, false);

  // Budget clips. Every row checkpoints by trail: copy mode charges
  // checkpoint_bytes by sizeof, which differs between build types.
  struct Clip {
    const char* name;
    std::uint64_t max_transitions;
    int max_depth;
    std::uint64_t max_memory;
    bool hash;
  };
  for (const Clip& c : {Clip{"max_transitions=50", 50, 0, 0, false},
                        Clip{"max_transitions=50/hash", 50, 0, 0, true},
                        Clip{"max_depth=9", 0, 9, 0, false},
                        Clip{"max_depth=9/hash", 0, 9, 0, true},
                        Clip{"max_memory=4096", 0, 0, 4096, false},
                        Clip{"max_memory=4096/hash", 0, 0, 4096, true}}) {
    Options options = Options::io();
    options.max_transitions = c.max_transitions;
    options.max_depth = c.max_depth;
    options.max_memory = c.max_memory;
    options.hash_states = c.hash;
    rows.push_back(row(std::string("tp0_edited_n6/IO/") + c.name,
                       analyze(tp0, edited, options)));
  }

  // The paper's §4 tables. Figure 3: valid LAPD traces with DI data
  // interactions from the user. Figure 4: the edited TP0 trace with n data
  // interactions each way, n=3 under every preset and n=5, 7 under FULL
  // only, as the paper ran it.
  est::Spec lapd = est::compile_spec(specs::lapd());
  for (const int di : {5, 25, 100}) {
    add_preset_rows(rows, "fig3_lapd_di" + std::to_string(di), lapd,
                    sim::lapd_trace(lapd, di), false);
  }
  for (const int n : {3, 5, 7}) {
    const std::string prefix = "fig4_tp0_edited_n" + std::to_string(n);
    const tr::Trace trace =
        sim::mutate_last_output_param(sim::tp0_paper_trace(tp0, n));
    if (n == 3) {
      add_preset_rows(rows, prefix, tp0, trace, false);
    } else {
      add_hash_rows(rows, prefix + "/FULL", tp0, trace, Options::full(),
                    false);
    }
  }
  return rows;
}

/// Compares `got` with the checked-in table `file`, or rewrites the table
/// when TANGO_UPDATE_GOLDENS is set.
void expect_golden(const std::vector<std::string>& got,
                   const std::string& file) {
  const std::string path = std::string(TANGO_CORE_GOLDEN_DIR) + "/" + file;
  if (std::getenv("TANGO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    for (const std::string& line : got) out << line << '\n';
    GTEST_SKIP() << "golden rewritten: " << path;
  }

  std::vector<std::string> want;
  std::istringstream is(read_file(path));
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) want.push_back(line);
  }
  ASSERT_FALSE(want.empty()) << "missing golden " << path
                             << " (set TANGO_UPDATE_GOLDENS=1 to create)";
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "row " << i;
  }
  EXPECT_EQ(got.size(), want.size());
}

TEST(PinnedCounters, AnalyzeMatchesGoldenTable) {
  expect_golden(record_table(), "dfs_counters.tsv");
}

// ------------------------------------------------------------- on-line --

const char* const kOnlineHeader =
    "case\tstatus\treason\twitness\tte\tge\tre\tsa\tfanout_sum\tmax_depth";

/// Runs MDFS over `lines`, handing the feed `per_poll` lines before each
/// run() (0: all at once), and records the row.
std::string online_row(const std::string& name, const est::Spec& spec,
                       const std::vector<std::string>& lines,
                       std::size_t per_poll, Options options) {
  obs::MemorySink sink;
  options.sink = &sink;
  options.max_transitions = 200'000;
  tr::MemoryFeed feed(spec);
  OnlineConfig config;
  config.options = options;
  OnlineAnalyzer analyzer(spec, feed, config);
  if (per_poll == 0) per_poll = lines.size();
  OnlineStatus status = OnlineStatus::Searching;
  for (std::size_t i = 0; i < lines.size(); i += per_poll) {
    for (std::size_t j = i; j < std::min(lines.size(), i + per_poll); ++j) {
      feed.push_line(lines[j]);
    }
    status = analyzer.run();
  }
  analyzer.finalize_stream();
  std::uint64_t witness = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.kind == obs::EventKind::Verdict) witness = e.parent;
  }
  const Stats& s = analyzer.stats();
  std::ostringstream os;
  os << name << '\t' << to_string(status) << '\t' << to_string(s.reason)
     << '\t' << witness << '\t' << s.transitions_executed << '\t'
     << s.generates << '\t' << s.restores << '\t' << s.saves << '\t'
     << s.fanout_sum << '\t' << s.max_depth;
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> record_online_table() {
  std::vector<std::string> rows{kOnlineHeader};

  for (const std::string& file : stored_traces()) {
    const std::string spec_name = file.substr(0, file.find('_'));
    est::Spec spec = est::compile_spec(specs::builtin_spec(spec_name));
    // Every stored trace ends with its `eof` line.
    const std::vector<std::string> lines =
        split_lines(read_file(std::string(TANGO_TRACES_DIR) + "/" + file));
    for (const auto& [name, preset] :
         {std::pair{"NR", Options::none()}, std::pair{"IO", Options::io()},
          std::pair{"IP", Options::ip()}, std::pair{"FULL", Options::full()}}) {
      Options options = preset;
      options.initial_state_search = file == "lapd_midstream.tr";
      for (const auto& [feed, per_poll] :
           {std::pair{"whole", std::size_t{0}},
            std::pair{"lines", std::size_t{1}}}) {
        rows.push_back(online_row(file + "/" + name + "/" + feed, spec, lines,
                                  per_poll, options));
      }
    }
  }

  // A server-shaped LAPD session (16-line chunks) and an invalid TP0 trace.
  est::Spec lapd = est::compile_spec(specs::lapd());
  std::vector<std::string> lapd_lines =
      split_lines(tr::to_text(lapd, sim::lapd_trace(lapd, 300)));
  lapd_lines.push_back("eof");
  rows.push_back(online_row("lapd_300/FULL/chunk16", lapd, lapd_lines, 16,
                            Options::full()));
  est::Spec tp0 = est::compile_spec(specs::tp0());
  std::vector<std::string> tp0_lines = split_lines(tr::to_text(
      tp0, sim::mutate_last_output_param(sim::tp0_paper_trace(tp0, 3))));
  tp0_lines.push_back("eof");
  for (const auto& [name, preset] :
       {std::pair{"NR", Options::none()}, std::pair{"IO", Options::io()}}) {
    rows.push_back(
        online_row(std::string("tp0_edited_n3/") + name + "/whole", tp0,
                   tp0_lines, 0, preset));
  }

  // The paper's §3 scenarios, one line per poll: Figure 1's ack example,
  // which deadlocks a plain DFS, and Figure 2's ip3, where the finished
  // interaction unlocks the o output.
  est::Spec ack = est::compile_spec(specs::ack());
  rows.push_back(online_row(
      "fig1_ack/NR/lines", ack,
      {"in a.x", "in a.x", "in a.x", "in b.y", "out a.ack", "eof"}, 1,
      Options::none()));
  est::Spec ip3 = est::compile_spec(specs::ip3());
  rows.push_back(online_row("fig2_ip3/NR/lines", ip3,
                            {"in b.data", "out c.data", "in c.data",
                             "out b.data", "in b.finished", "in a.x",
                             "out a.o", "eof"},
                            1, Options::none()));

  // §3.1.3 dynamic node reordering on and off: ack's T1/T2 choice with N x
  // inputs (a 2^N tree) one line per poll, then LAPD and a valid TP0 trace
  // in 2-line chunks.
  const auto add_reorder_rows = [&](const std::string& name,
                                    const est::Spec& spec,
                                    const std::vector<std::string>& lines,
                                    std::size_t per_poll,
                                    const Options& preset) {
    for (const bool reorder : {true, false}) {
      Options options = preset;
      options.reorder_pg_nodes = reorder;
      rows.push_back(online_row(name + (reorder ? "" : "/no-reorder"), spec,
                                lines, per_poll, options));
    }
  };
  for (const int n : {8, 12, 14}) {
    std::vector<std::string> lines(static_cast<std::size_t>(n), "in a.x");
    lines.insert(lines.end(), {"in b.y", "out a.ack", "eof"});
    add_reorder_rows("ack_x" + std::to_string(n) + "/NR/lines", ack, lines, 1,
                     Options::none());
  }
  for (const int di : {10, 25}) {
    std::vector<std::string> lines =
        split_lines(tr::to_text(lapd, sim::lapd_trace(lapd, di)));
    lines.push_back("eof");
    add_reorder_rows("lapd_di" + std::to_string(di) + "/IO/chunk2", lapd,
                     lines, 2, Options::io());
  }
  std::vector<std::string> tp0_valid_lines =
      split_lines(tr::to_text(tp0, sim::tp0_trace(tp0, 6, 6, false)));
  tp0_valid_lines.push_back("eof");
  add_reorder_rows("tp0_n6/IO/chunk2", tp0, tp0_valid_lines, 2, Options::io());
  return rows;
}

TEST(PinnedCounters, OnlineMatchesGoldenTable) {
  expect_golden(record_online_table(), "mdfs_counters.tsv");
}

}  // namespace
}  // namespace tango::core
