// tango — trace analysis tool generator for Estelle specifications.
//
//   tango check <spec>                      syntax/semantic check
//   tango analyze <spec> <trace> [opts]     batch (static) trace analysis
//   tango online <spec> <trace> [opts]      on-line analysis, following the
//                                           file as it grows (MDFS)
//   tango simulate <spec> --script <file>   implementation-generation mode
//   tango generate-cpp <spec> [-o out.cpp]  emit a per-spec analyzer's main
//   tango normal-form <spec>                §5.3 transformation, to stdout
//   tango workload <lapd|tp0> [--size=N]    emit a benchmark workload trace
//   tango fuzz [spec...] [--seed=N]         differential conformance fuzzing
//                                           across DFS / hash-DFS / MDFS
//   tango lint <spec>                       reachability / non-progress checks
//   tango events <check|stats|diff|replay>  search-event stream tooling
//   tango coverage <spec> <trace...>        transition coverage of a campaign
//   tango print <spec>                      parse + pretty-print round trip
//   tango specs                             list built-in specifications
//   tango cat <builtin>                     dump a built-in specification
//   tango serve --listen <host:port>        on-line analysis server (TCP,
//                                           framed sessions; docs/SERVER.md)
//   tango submit <trace> --connect <h:p>    run one session against a server
//   tango --version                         build / protocol / schema info
//
// <spec> is a file path or `builtin:<name>` (see `tango specs`).
#include "cli/cli.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/coverage.hpp"
#include "analysis/lint.hpp"
#include "codegen/cpp_generator.hpp"
#include "core/dfs.hpp"
#include "core/mdfs.hpp"
#include "core/option_table.hpp"
#include "core/parallel_dfs.hpp"
#include "estelle/parser.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/json.hpp"
#include "obs/replay.hpp"
#include "obs/schema.hpp"
#include "obs/sink.hpp"
#include "obs/stream.hpp"
#include "estelle/printer.hpp"
#include "server/client.hpp"
#include "server/framing.hpp"
#include "server/server.hpp"
#include "sim/mutate.hpp"
#include "sim/simulator.hpp"
#include "sim/workloads.hpp"
#include "specs/builtin_specs.hpp"
#include "support/text.hpp"
#include "support/version.hpp"
#include "trace/dynamic_source.hpp"
#include "trace/trace_io.hpp"
#include "transform/normal_form.hpp"

namespace {

using namespace tango;

int usage() {
  std::cerr << "usage: tango <check|analyze|online|serve|submit|simulate|"
               "normal-form|print|specs|cat> ...\n"
               "run `tango help` for details, `tango --version` for build "
               "info\n";
  return 2;
}

int print_version() {
  std::cout << "tango " << kTangoVersion << " (" << kTangoBuildType
            << ", server protocol " << srv::kProtocolVersion
            << ", events schema " << obs::kEventSchemaVersion << ")\n";
  return 0;
}

/// One `tango help` option line: the spelling (under 34 columns), then
/// the text word-wrapped to 78 columns beside it.
void print_option(const std::string& spelling, std::string_view text) {
  std::string line = "  " + spelling;
  for (const std::string_view word : split(text, ' ')) {
    if (line.size() > 36 && line.size() + 1 + word.size() > 78) {
      std::cout << line << "\n";
      line.clear();
    }
    line.resize(std::max<std::size_t>(line.size() + 1, 36), ' ');
    line += word;
  }
  std::cout << line << "\n";
}

int help() {
  std::cout <<
      R"(tango — trace analysis tool generator for Estelle specifications

commands:
  check <spec>                      compile the specification, report errors
  analyze <spec> <trace> [options]  static trace analysis (DFS)
  online <spec> <trace> [options]   on-line analysis following a growing file
  simulate <spec> --script <file> [--seed N] [-o <trace>]
                                    execute the spec, record the trace
  generate-cpp <spec> [-o out.cpp]  emit the main of a trace analyzer for
                                    this one spec: it embeds the spec text
                                    and takes analyze's and online's
                                    options (link it with tango_cli)
  normal-form <spec>                print the normal-form transformation
  workload <lapd|tp0> [--size=N] [--invalid] [--seed=N] [-o <trace>]
                                    emit the paper's evaluation workloads
                                    (Figure 3 / Figure 4 traces)
  fuzz [spec...] [--seed=N] [--iterations=N] [--engines=dfs,hash,mdfs,par]
       [--chunk=N] [--jobs=N] [--stats <file>] [--out-dir <dir>]
       [--max-transitions=N]
                                    differential conformance fuzzing: random
                                    environments -> simulated + mutated
                                    traces -> cross-check DFS, hash-pruned
                                    DFS and on-line MDFS under all order
                                    presets; disagreements are shrunk and
                                    written as reproducer bundles
                                    (see docs/FUZZING.md)
  events check <stream...>          schema-validate search-event streams
  events stats <stream>             per-kind counts and headline figures
  events diff <a> <b> [--ignore=k1,k2]
                                    field-order-insensitive stream diff
  events replay <stream...>         replay oracle: re-execute a recorded
                                    stream against a fresh machine, check
                                    every fire was enabled, hashes match
                                    and the verdict balances the stream
                                    (docs/OBSERVABILITY.md); streams with
                                    spec_ref/trace_ref are self-describing,
                                    else: events replay <spec> <tr> <stream>
  lint <spec> [--passes=a,b] [--format=text|json|sarif]
                                    static analysis: reachability, non-
                                    progress cycles, dead interactions,
                                    definite assignment, value ranges,
                                    unreachable statements, provided-clause
                                    purity, guard implication, whole-spec
                                    control-state invariants (docs/LINT.md);
                                    exit 1 iff any error-level finding
  coverage <spec> <trace...> [--format=text|json]
                                    transition coverage over valid traces;
                                    statically-dead transitions are
                                    annotated and excluded from the ratio
  print <spec>                      parse and pretty-print
  specs                             list built-in specifications
  cat <builtin>                     print a built-in specification
  serve [spec...] --listen=<host:port> [--workers=N] [--queue-max=N]
        [--max-sessions=N] [--events-dir=<dir>] [analysis options]
                                    long-running on-line analysis server:
                                    framed TCP sessions drive MDFS from
                                    network streams (docs/SERVER.md). All
                                    built-ins are preloaded; extra spec
                                    files are preloaded under their path.
                                    Analysis options set session defaults;
                                    a hello overrides the [hello] ones, but
                                    only tightens budgets and --jobs
  submit <trace> --connect=<host:port> --spec=<ref> [--static]
         [--chunk-size=N] [--chunk-delay=<ms>] [analysis options]
                                    run one session against a server.
                                    <trace> may be - (stdin). --chunk-size
                                    trickles N events per chunk (0 = whole
                                    trace at once); --static buffers at the
                                    server and runs the one-shot DFS engine.
                                    Sends the [hello] analysis options
  --version                         print build, protocol and event-schema
                                    versions

<spec> is a file path or builtin:<name> (ack, ip3, ip3prime, abp, inres, tp0, lapd).

analysis options:
)";
  for (const core::OptionRow& row : core::option_rows()) {
    if ((row.surfaces & core::kCli) == 0) continue;
    std::string spelling(row.flag);
    if (!row.arg.empty()) spelling += "=" + std::string(row.arg);
    std::string text(row.help);
    if ((row.surfaces & core::kHello) != 0) text += " [hello]";
    print_option(spelling, text);
  }
  std::cout << R"(
other options:
  --batch <dir>                     analyze every *.tr file in <dir> across
                                    --jobs workers, isolating each item's
                                    failure; exit 0 iff all are valid
                                    (--format=json for a JSON report)
  --events=<file>                   record a structured search-event stream
                                    (JSONL, docs/EVENTS.md) for analyze and
                                    online runs; inspect with tango events
  --events-dir=<dir>                per-item event streams for --batch and
                                    fuzz campaigns (one .jsonl per matrix
                                    cell, plus .tr sidecars for replay)
  --all-orders                      analyze under all four order modes and
                                    print a Figure-3-style comparison row
  --size=<n>                        workload size (data interactions)
  --invalid                         mutate the workload's last data parameter
  --verbose                         print the solution path / failure notes

simulate script lines:  <step> <ip>.<msg>(<params>)   (and # comments)
)";
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw UsageError("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string load_spec_text(const std::string& arg) {
  if (starts_with(arg, "builtin:")) {
    std::string_view text = specs::builtin_spec(arg.substr(8));
    if (text.empty()) {
      throw UsageError("unknown built-in spec '" + arg.substr(8) + "'");
    }
    return std::string(text);
  }
  return read_file(arg);
}

/// The specification analyze and online run: its text and the ref it was
/// loaded by (a path or `builtin:<name>`), which event streams record.
struct SpecSource {
  std::string ref;
  std::string text;
};

struct Cli {
  core::Options options = core::Options::io();
  bool verbose = false;
  bool all_orders = false;
  bool invalid = false;  // workload: mutate the last data parameter
  int size = 10;
  std::string script;
  std::string output;
  std::uint32_t seed = 1;
  // fuzz
  int iterations = 100;
  std::string engines;
  std::size_t chunk = 3;
  std::string stats_path;
  std::string out_dir;
  std::string batch_dir;
  // observability
  std::string events_path;         // --events=<file> (analyze/online)
  std::string events_dir;          // --events-dir=<dir> (batch/fuzz)
  std::string ignore_keys;         // events diff --ignore=k1,k2
  // lint / coverage
  std::string passes;              // --passes=a,b,... (empty = all)
  std::string format = "text";     // --format=text|json|sarif
  // serve / submit
  std::string listen;              // serve --listen=<host:port>
  std::string connect;             // submit --connect=<host:port>
  std::string spec_ref;            // submit --spec=<registry ref>
  bool static_mode = false;        // submit --static
  int workers = 4;                 // serve --workers=N
  std::size_t queue_max = 16;      // serve --queue-max=N
  std::uint64_t max_sessions = 0;  // serve --max-sessions=N (0 = forever)
  std::size_t chunk_size = 0;      // submit --chunk-size=N (0 = one chunk)
  std::uint64_t chunk_delay_ms = 0;  // submit --chunk-delay=<ms>
  std::vector<std::string> positional;
};

/// Levenshtein distance, for unknown-flag suggestions. Flag names are
/// short, so the O(n*m) table is nothing.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

/// True if `a` and `b` have a letter in common.
bool share_a_letter(std::string_view a, std::string_view b) {
  return std::any_of(a.begin(), a.end(), [&](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 &&
           b.find(c) != std::string_view::npos;
  });
}

/// A typo'd flag ("--no-static-prun", "--invariant-prune") dies with the
/// nearest real flag named instead of a bare "unknown option"; a flag
/// sharing no letter with the typo is never named ("-v" is not "-o").
/// `candidates` are the other flags parse_cli tried, "=" marking a value.
[[noreturn]] void unknown_option(const std::string& a,
                                 std::vector<std::string> candidates) {
  for (const core::OptionRow& row : core::option_rows()) {
    if ((row.surfaces & core::kCli) != 0) {
      candidates.push_back(std::string(row.flag) +
                           (row.arg.empty() ? "" : "="));
    }
  }
  const std::string name = a.substr(0, a.find('='));
  std::string best;
  std::size_t best_d = std::string::npos;
  for (const std::string& f : candidates) {
    std::string candidate = f;
    if (!candidate.empty() && candidate.back() == '=') candidate.pop_back();
    if (!share_a_letter(name, candidate)) continue;
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_d) {
      best_d = d;
      best = f;
    }
  }
  std::string msg = "unknown option '" + a + "'";
  // Suggest only when the typo is close enough to be a plausible slip.
  if (best_d <= std::max<std::size_t>(2, name.size() / 4)) {
    msg += " (did you mean '" + best + "'?)";
  }
  throw UsageError(msg);
}

Cli parse_cli(int argc, char** argv, int first) {
  Cli cli;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    std::vector<std::string> tried;  // did-you-mean candidates
    const auto flag = [&](const char* name, bool& out) {
      tried.emplace_back(name);
      if (a != name) return false;
      out = true;
      return true;
    };
    // `--name=<v>`; `spaced` flags also take `--name <v>`.
    const auto text = [&](const std::string& name, std::string& out,
                          bool spaced = false) {
      tried.push_back(spaced ? name : name + "=");
      if (spaced && a == name) {
        if (i + 1 >= argc) throw UsageError(name + " needs a value");
        out = argv[++i];
        return true;
      }
      if (!starts_with(a, name + "=")) return false;
      out = a.substr(name.size() + 1);
      return true;
    };
    const auto number = [&](const std::string& name, auto& out) {
      using T = std::remove_reference_t<decltype(out)>;
      std::string v;
      if (!text(name, v)) return false;
      out = static_cast<T>(parse_flag_u64(
          name, v,
          static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
      return true;
    };
    if (core::parse_cli_option(a, cli.options) ||
        flag("--verbose", cli.verbose) || flag("--invalid", cli.invalid) ||
        flag("--all-orders", cli.all_orders) ||
        flag("--static", cli.static_mode) || number("--size", cli.size) ||
        number("--seed", cli.seed) || number("--iterations", cli.iterations) ||
        number("--chunk", cli.chunk) || number("--workers", cli.workers) ||
        number("--queue-max", cli.queue_max) ||
        number("--max-sessions", cli.max_sessions) ||
        number("--chunk-size", cli.chunk_size) ||
        number("--chunk-delay", cli.chunk_delay_ms) ||
        text("--passes", cli.passes) || text("--engines", cli.engines) ||
        text("--ignore", cli.ignore_keys) || text("--listen", cli.listen) ||
        text("--connect", cli.connect) || text("--spec", cli.spec_ref) ||
        text("--batch", cli.batch_dir, true) ||
        text("--script", cli.script, true) ||
        text("--stats", cli.stats_path, true) ||
        text("--out-dir", cli.out_dir, true) ||
        text("--events-dir", cli.events_dir, true) ||
        text("--events", cli.events_path, true) ||
        text("-o", cli.output, true)) {
      continue;
    }
    if (text("--format", cli.format)) {
      if (cli.format != "text" && cli.format != "json" &&
          cli.format != "sarif") {
        throw UsageError("bad --format value '" + cli.format +
                             "' (expected text, json or sarif)");
      }
      continue;
    }
    // No command takes a positional starting with '-' but "-" (stdin).
    if (starts_with(a, "-") && a != "-") unknown_option(a, std::move(tried));
    cli.positional.push_back(a);
  }
  return cli;
}

est::Spec compile_with_warnings(const std::string& text) {
  DiagnosticSink sink;
  est::Spec spec = est::compile_spec(text, sink);
  if (!sink.all().empty()) std::cerr << sink.render();
  return spec;
}

int cmd_check(const Cli& cli) {
  if (cli.positional.empty()) return usage();
  est::Spec spec = compile_with_warnings(load_spec_text(cli.positional[0]));
  std::cout << "ok: specification '" << spec.name << "' — "
            << spec.states.size() << " states, " << spec.ips.size()
            << " ips, " << spec.body().transitions.size()
            << " transitions, " << spec.module_vars.size()
            << " module variables\n";
  return 0;
}

/// A run header's trace_ref is resolved relative to the stream's own
/// directory on replay, so it must be recorded that way too — a stream
/// written into --events-dir stays replayable from any cwd. Falls back to
/// the raw path when no relative form exists (different filesystem root).
std::string trace_ref_for(const std::string& stream_path,
                          const std::string& trace_path) {
  if (trace_path == "-") return "<stdin>";  // not a replayable file
  std::filesystem::path base =
      std::filesystem::path(stream_path).parent_path();
  if (base.empty()) base = ".";
  std::error_code ec;
  std::filesystem::path rel =
      std::filesystem::proximate(trace_path, base, ec);
  if (ec || rel.empty()) return trace_path;
  return rel.generic_string();
}

/// `tango analyze <spec> --batch <dir>`: every *.tr in <dir> (sorted by
/// name, so output order is stable), whole traces scheduled across the
/// worker pool.
int cmd_analyze_batch(const Cli& cli, const SpecSource& source) {
  est::Spec spec = compile_with_warnings(source.text);

  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(cli.batch_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tr") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "tango: no *.tr files in '" << cli.batch_dir << "'\n";
    return 2;
  }

  // One result per file. Per-item parse isolation: one unreadable or
  // malformed trace file is that item's error, never a reason to abort the
  // other items; the parsed ones are analyzed and moved back in.
  std::vector<core::BatchItemResult> results(files.size());
  std::vector<tr::Trace> traces;
  std::vector<std::size_t> good;  // batch index -> file
  for (std::size_t i = 0; i < files.size(); ++i) {
    try {
      traces.push_back(tr::parse_trace(spec, read_file(files[i])));
      good.push_back(i);
    } catch (const std::exception& e) {
      results[i].error = e.what();
    }
  }

  // --events-dir: one stream per corpus entry, named after the trace file.
  std::vector<std::unique_ptr<obs::JsonlSink>> sink_storage;
  std::vector<obs::Sink*> sinks;
  if (!cli.events_dir.empty()) {
    std::filesystem::create_directories(cli.events_dir);
    for (const std::size_t i : good) {
      const std::string stem =
          std::filesystem::path(files[i]).stem().string();
      const std::string stream_path = cli.events_dir + "/" + stem + ".jsonl";
      auto sink = std::make_unique<obs::JsonlSink>(stream_path);
      sink->set_refs(source.ref, trace_ref_for(stream_path, files[i]));
      sinks.push_back(sink.get());
      sink_storage.push_back(std::move(sink));
    }
  }
  std::vector<core::BatchItemResult> analyzed =
      core::analyze_batch(spec, traces, cli.options, sinks);
  for (std::size_t k = 0; k < good.size(); ++k) {
    results[good[k]] = std::move(analyzed[k]);
  }

  std::size_t valid = 0;
  std::size_t errors = 0;
  const bool json = cli.format == "json";
  std::string out;
  if (json) out = "{\"items\":[";
  for (std::size_t i = 0; i < files.size(); ++i) {
    const core::BatchItemResult& r = results[i];
    const core::InconclusiveReason reason = r.result.reason;
    if (r.error.empty() && r.result.verdict == core::Verdict::Valid) ++valid;
    if (!r.error.empty()) ++errors;
    if (json) {
      if (i != 0) out += ',';
      out += "{\"file\":";
      obs::escape_json_into(out, files[i]);
      out += ",\"verdict\":\"";
      out += r.error.empty() ? core::to_string(r.result.verdict)
                             : std::string_view("error");
      out += '"';
      if (reason != core::InconclusiveReason::None) {
        out += ",\"reason\":\"";
        out += core::to_string(reason);
        out += '"';
      }
      if (!r.error.empty()) {
        out += ",\"error\":";
        obs::escape_json_into(out, r.error);
      }
      if (r.error.empty()) out += ",\"stats\":" + r.result.stats.to_json();
      out += '}';
      continue;
    }
    if (!r.error.empty()) {
      std::cout << files[i] << ": error: " << r.error << "\n";
      continue;
    }
    std::cout << files[i] << ": " << core::to_string(r.result.verdict);
    if (reason != core::InconclusiveReason::None) {
      std::cout << " (reason: " << core::to_string(reason) << ")";
    }
    if (cli.verbose) std::cout << " (" << r.result.stats.summary() << ")";
    std::cout << "\n";
  }
  if (json) {
    out += "],\"summary\":{\"total\":" + std::to_string(files.size()) +
           ",\"valid\":" + std::to_string(valid) +
           ",\"errors\":" + std::to_string(errors) + "}}";
    std::cout << out << "\n";
  } else {
    std::cout << "batch: " << valid << "/" << files.size() << " valid\n";
  }
  return valid == files.size() ? 0 : 1;
}

/// `tango analyze <spec> <trace>`, with the spec resolved: the trace is
/// `cli.positional[0]`.
int cmd_analyze(const Cli& cli, const SpecSource& source) {
  // --visited-max bounds the --hash-states table; without the table it
  // would be a silent no-op, which has bitten users expecting a memory cap.
  if (cli.options.visited_max != 0 && !cli.options.hash_states) {
    throw UsageError("--visited-max has no effect without "
                     "--hash-states (add --hash-states, or drop "
                     "--visited-max)");
  }
  if (!cli.batch_dir.empty()) return cmd_analyze_batch(cli, source);
  if (cli.positional.empty()) return usage();
  est::Spec spec = compile_with_warnings(source.text);
  // `tango analyze <spec> -` reads the trace from stdin — the same
  // tr::load_trace path `tango submit` uses, so pipelines compose:
  //   tango workload tp0 | tango analyze builtin:tp0 -
  tr::Trace trace = tr::load_trace(spec, cli.positional[0]);
  if (cli.all_orders) {
    std::printf("%-6s %-12s %10s %10s %10s %10s %8s\n", "mode", "verdict",
                "TE", "GE", "RE", "SA", "cpu(ms)");
    for (const char* order : {"none", "io", "ip", "full"}) {
      core::Options o = cli.options;
      core::apply_order(o, order);
      core::DfsResult r = core::analyze(spec, trace, o);
      std::printf("%-6s %-12s %10llu %10llu %10llu %10llu %8.2f\n",
                  o.order_mode_name().c_str(),
                  std::string(core::to_string(r.verdict)).c_str(),
                  static_cast<unsigned long long>(
                      r.stats.transitions_executed),
                  static_cast<unsigned long long>(r.stats.generates),
                  static_cast<unsigned long long>(r.stats.restores),
                  static_cast<unsigned long long>(r.stats.saves),
                  r.stats.cpu_seconds * 1e3);
    }
    return 0;
  }
  std::unique_ptr<obs::JsonlSink> events;
  core::Options options = cli.options;
  if (!cli.events_path.empty()) {
    events = std::make_unique<obs::JsonlSink>(cli.events_path);
    events->set_refs(source.ref,
                     trace_ref_for(cli.events_path, cli.positional[0]));
    options.sink = events.get();
  }
  core::DfsResult result = core::analyze_parallel(spec, trace, options);
  if (events != nullptr) {
    events.reset();  // flush the stream before reporting
    std::cerr << "events:  " << cli.events_path << "\n";
  }
  std::cout << "verdict: " << core::to_string(result.verdict) << "\n";
  if (result.reason != core::InconclusiveReason::None) {
    std::cout << "reason:  " << core::to_string(result.reason) << "\n";
  }
  std::cout << "stats:   " << result.stats.summary() << "\n";
  if (cli.verbose) {
    if (!result.solution.empty()) {
      std::cout << "solution:";
      for (const std::string& t : result.solution) std::cout << ' ' << t;
      std::cout << "\n";
    }
    if (!result.note.empty()) std::cout << "note:    " << result.note << "\n";
  }
  return result.verdict == core::Verdict::Valid ? 0 : 1;
}

/// `tango online <spec> <trace>`, with the spec resolved: the trace is
/// `cli.positional[0]`.
int cmd_online(const Cli& cli, const SpecSource& source) {
  if (cli.positional.empty()) return usage();
  est::Spec spec = compile_with_warnings(source.text);
  tr::FileFollower follower(spec, cli.positional[0]);
  core::OnlineConfig config;
  config.options = cli.options;
  std::unique_ptr<obs::JsonlSink> events;
  if (!cli.events_path.empty()) {
    events = std::make_unique<obs::JsonlSink>(cli.events_path);
    events->set_refs(source.ref,
                     trace_ref_for(cli.events_path, cli.positional[0]));
    config.options.sink = events.get();
  }
  core::OnlineAnalyzer analyzer(spec, follower, config);
  while (!analyzer.conclusive()) {
    analyzer.step_round(8192);
    core::OnlineStatus s;
    if (cli.verbose && analyzer.take_status_change(s)) {
      std::cerr << "status: " << core::to_string(s) << " (events so far: "
                << analyzer.trace().events().size() << ")\n";
    }
    if (analyzer.conclusive()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  analyzer.finalize_stream();
  if (events != nullptr) {
    events.reset();
    std::cerr << "events:  " << cli.events_path << "\n";
  }
  std::cout << "verdict: " << core::to_string(analyzer.status()) << "\n"
            << "stats:   " << analyzer.stats().summary() << "\n";
  return analyzer.status() == core::OnlineStatus::Valid ? 0 : 1;
}

int cmd_simulate(const Cli& cli) {
  if (cli.positional.empty() || cli.script.empty()) return usage();
  est::Spec spec = compile_with_warnings(load_spec_text(cli.positional[0]));

  std::vector<sim::Feed> feeds;
  std::uint32_t line_no = 0;
  const std::string script = read_file(cli.script);  // outlives the views
  for (std::string_view raw : split(script, '\n')) {
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    // "<step> <ip>.<msg>(params)" — reuse the trace-event parser by
    // prefixing the direction keyword.
    std::size_t sp = line.find(' ');
    if (sp == std::string_view::npos) {
      throw CompileError({line_no, 1}, "script: expected '<step> <event>'");
    }
    const std::string step_text(line.substr(0, sp));
    std::uint64_t step = 0;
    std::size_t used = 0;
    try {
      if (!step_text.empty() && step_text.front() != '-') {
        step = std::stoull(step_text, &used);
      }
    } catch (const std::exception&) {
      used = 0;  // reported below with position info
    }
    if (used == 0 || used != step_text.size()) {
      throw CompileError({line_no, 1},
                         "script: step must be a non-negative integer, got '" +
                             step_text + "'");
    }
    tr::TraceEvent e = tr::parse_event_line(
        spec, "in " + std::string(trim(line.substr(sp))), line_no);
    sim::Feed f;
    f.at_step = step;
    f.ip = e.ip;
    f.interaction = e.interaction;
    f.params = std::move(e.params);
    feeds.push_back(std::move(f));
  }

  sim::SimOptions so;
  so.seed = cli.seed;
  sim::SimResult result = sim::simulate(spec, std::move(feeds), so);
  const std::string text = tr::to_text(spec, result.trace);
  if (cli.output.empty()) {
    std::cout << text;
  } else {
    std::ofstream out(cli.output, std::ios::binary);
    out << text;
  }
  std::cerr << "simulated " << result.steps << " steps, final state "
            << (result.final_state >= 0
                    ? spec.states[static_cast<std::size_t>(result.final_state)]
                    : std::string("?"))
            << (result.completed ? "" : " (incomplete: " + result.note + ")")
            << "\n";
  return result.completed ? 0 : 1;
}

int cmd_generate_cpp(const Cli& cli) {
  if (cli.positional.empty()) return usage();
  const std::string text = load_spec_text(cli.positional[0]);
  (void)compile_with_warnings(text);  // only a checked spec is embedded
  const std::string code = codegen::generate_cpp(cli.positional[0], text);
  if (cli.output.empty()) {
    std::cout << code;
  } else {
    std::ofstream out(cli.output, std::ios::binary);
    out << code;
    std::cerr << "wrote " << cli.output << " (link it with tango_cli)\n";
  }
  return 0;
}

int cmd_normal_form(const Cli& cli) {
  if (cli.positional.empty()) return usage();
  std::vector<std::string> residual;
  std::cout << transform::normal_form_source(
      load_spec_text(cli.positional[0]), &residual);
  for (const std::string& r : residual) {
    std::cerr << "warning: transition '" << r
              << "' still contains control statements (not liftable)\n";
  }
  return 0;
}

int cmd_workload(const Cli& cli) {
  if (cli.positional.empty()) return usage();
  const std::string which = cli.positional[0];
  est::Spec spec = compile_with_warnings(load_spec_text("builtin:" + which));
  tr::Trace trace(0);
  if (which == "lapd") {
    trace = sim::lapd_trace(spec, cli.size, cli.seed);
  } else if (which == "tp0") {
    trace = cli.invalid ? sim::tp0_paper_trace(spec, cli.size)
                        : sim::tp0_trace(spec, cli.size, cli.size, true,
                                         cli.seed);
  } else {
    throw UsageError("workload must be 'lapd' or 'tp0'");
  }
  if (cli.invalid) trace = sim::mutate_last_output_param(trace);
  const std::string text = tr::to_text(spec, trace);
  if (cli.output.empty()) {
    std::cout << text;
  } else {
    std::ofstream out(cli.output, std::ios::binary);
    out << text;
  }
  return 0;
}

int cmd_fuzz(const Cli& cli) {
  fuzz::FuzzConfig config;
  config.seed = cli.seed;
  config.iterations = cli.iterations;
  config.specs = cli.positional;  // empty = all fuzzable builtins
  config.engines = fuzz::parse_engines(cli.engines);
  config.chunk = cli.chunk;
  config.jobs = cli.options.jobs;
  config.out_dir = cli.out_dir;
  config.events_dir = cli.events_dir;
  config.verbose = cli.verbose;
  config.static_prune = cli.options.static_prune;
  if (cli.options.max_transitions != 0) {
    config.max_transitions = cli.options.max_transitions;
  }
  config.deadline_ms = cli.options.deadline_ms;

  fuzz::FuzzReport report = fuzz::run_fuzz(config, &std::cerr);
  std::cout << report.summary();
  if (!cli.stats_path.empty()) {
    std::ofstream out(cli.stats_path, std::ios::binary);
    out << report.to_json() << "\n";
    std::cerr << "wrote " << cli.stats_path << "\n";
  }
  if (!report.clean()) {
    std::cout << "result: " << report.disagreements.size()
              << " disagreement(s) — see reproducer bundle(s)"
              << (config.out_dir.empty() ? " (rerun with --out-dir to save)"
                                         : "")
              << "\n";
    return 1;
  }
  std::cout << "result: all engines agree on all verdicts\n";
  return 0;
}

int cmd_lint(const Cli& cli) {
  if (cli.positional.empty()) return usage();
  est::Spec spec = compile_with_warnings(load_spec_text(cli.positional[0]));
  analysis::LintOptions lo;
  lo.passes = cli.passes;
  lo.source_name = cli.positional[0];
  analysis::LintReport report = analysis::lint(spec, lo);
  if (cli.format == "json") {
    std::cout << report.render_json(cli.positional[0]);
  } else if (cli.format == "sarif") {
    std::cout << report.render_sarif(cli.positional[0]);
  } else {
    std::cout << report.render();
  }
  return report.has_errors() ? 1 : 0;
}

int cmd_coverage(const Cli& cli) {
  if (cli.positional.size() < 2) return usage();
  est::Spec spec = compile_with_warnings(load_spec_text(cli.positional[0]));
  std::vector<tr::Trace> traces;
  for (std::size_t i = 1; i < cli.positional.size(); ++i) {
    traces.push_back(tr::parse_trace(spec, read_file(cli.positional[i])));
  }
  analysis::CoverageReport report =
      analysis::coverage(spec, traces, cli.options);
  if (cli.format == "json") {
    std::cout << report.render_json();
  } else {
    std::cout << report.render();
  }
  return report.traces_valid == report.traces_total ? 0 : 1;
}

// ---- tango events ---------------------------------------------------------

int events_usage() {
  std::cerr
      << "usage: tango events <check|stats|diff|replay> ...\n"
         "  check <stream...>                 schema-validate JSONL streams\n"
         "  stats <stream>                    per-kind counts, as JSON\n"
         "  diff <a> <b> [--ignore=k1,k2]     field-order-insensitive diff\n"
         "  replay <stream...>                re-execute each stream against\n"
         "                                    its run header's spec_ref /\n"
         "                                    trace_ref (fuzz captures)\n"
         "  replay <spec> <trace> <stream>    explicit replay\n";
  return 2;
}

void print_read_errors(std::ostream& os, const std::string& path,
                       const obs::ReadResult& rr) {
  for (const obs::ReadError& e : rr.errors) {
    os << path << ":" << e.line << ": " << e.message << "\n";
  }
}

int cmd_events_check(const Cli& cli) {
  bool clean = true;
  for (std::size_t i = 1; i < cli.positional.size(); ++i) {
    const std::string& path = cli.positional[i];
    const obs::ReadResult rr = obs::read_events(read_file(path));
    if (rr.errors.empty()) {
      std::cout << path << ": ok\n";
      continue;
    }
    clean = false;
    print_read_errors(std::cout, path, rr);
  }
  return clean ? 0 : 1;
}

int cmd_events_stats(const Cli& cli) {
  const obs::ReadResult rr = obs::read_events_file(cli.positional[1]);
  print_read_errors(std::cerr, cli.positional[1], rr);
  std::cout << obs::stats_to_json(obs::summarize(rr.events)) << "\n";
  return rr.errors.empty() ? 0 : 1;
}

/// Canonicalizes every JSONL line (keys sorted, --ignore keys dropped) so
/// two recordings of the same run compare equal regardless of field order.
std::vector<std::string> canonical_lines(const std::string& text,
                                         const std::vector<std::string>& ignore,
                                         const std::string& path) {
  std::vector<std::string> out;
  std::size_t line_no = 0;
  for (std::string_view raw : split(text, '\n')) {
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty()) continue;
    try {
      out.push_back(obs::canonical(obs::parse_json(line), ignore));
    } catch (const std::exception& e) {
      throw CompileError({static_cast<std::uint32_t>(line_no), 1},
                         path + ": " + e.what());
    }
  }
  return out;
}

int cmd_events_diff(const Cli& cli) {
  if (cli.positional.size() < 3) return events_usage();
  std::vector<std::string> ignore;
  for (std::string_view part : split(cli.ignore_keys, ',')) {
    if (!trim(part).empty()) ignore.emplace_back(trim(part));
  }
  const std::vector<std::string> a =
      canonical_lines(read_file(cli.positional[1]), ignore, cli.positional[1]);
  const std::vector<std::string> b =
      canonical_lines(read_file(cli.positional[2]), ignore, cli.positional[2]);
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    std::cout << "streams differ at event " << i + 1 << ":\n- " << a[i]
              << "\n+ " << b[i] << "\n";
    return 1;
  }
  if (a.size() != b.size()) {
    std::cout << "streams differ in length: " << a.size() << " vs "
              << b.size() << " events\n";
    return 1;
  }
  std::cout << "streams are equivalent (" << a.size() << " events)\n";
  return 0;
}

int print_replay(const std::string& stream_path,
                 const obs::ReplayReport& report, bool verbose) {
  if (report.ok()) {
    std::cout << stream_path << ": ok — engine " << report.engine
              << ", verdict " << report.verdict << ", "
              << report.nodes_replayed << " nodes, " << report.fires_checked
              << " fires re-executed\n";
    return 0;
  }
  std::cout << stream_path << ": " << report.issues.size() << " issue(s)\n";
  const std::size_t shown = verbose ? report.issues.size()
                                    : std::min<std::size_t>(
                                          report.issues.size(), 5);
  for (std::size_t i = 0; i < shown; ++i) {
    std::cout << "  event " << report.issues[i].event_index << ": "
              << report.issues[i].message << "\n";
  }
  if (shown < report.issues.size()) {
    std::cout << "  ... (" << report.issues.size() - shown
              << " more; rerun with --verbose)\n";
  }
  return 1;
}

int cmd_events_replay(const Cli& cli) {
  if (cli.positional.size() < 2) return events_usage();
  // Explicit form: replay <spec> <trace> <stream> — the trace argument has
  // a .tr extension (or the stream a .jsonl one), never ambiguous in
  // practice; self-describing form: every positional is a stream.
  if (cli.positional.size() == 4 &&
      cli.positional[3].size() >= 6 &&
      cli.positional[3].compare(cli.positional[3].size() - 6, 6, ".jsonl") ==
          0) {
    est::Spec spec = compile_with_warnings(load_spec_text(cli.positional[1]));
    tr::Trace trace = tr::parse_trace(spec, read_file(cli.positional[2]));
    return print_replay(
        cli.positional[3],
        obs::replay_stream(spec, trace, read_file(cli.positional[3])),
        cli.verbose);
  }
  int rc = 0;
  for (std::size_t i = 1; i < cli.positional.size(); ++i) {
    const std::string& path = cli.positional[i];
    const obs::ReadResult rr = obs::read_events_file(path);
    if (!rr.errors.empty()) {
      print_read_errors(std::cout, path, rr);
      rc = 1;
      continue;
    }
    const obs::Event& header = rr.events.front();  // a clean stream has one
    if (header.spec_ref.empty() || header.trace_ref.empty()) {
      std::cout << path << ": run header lacks spec_ref/trace_ref; use "
                   "`tango events replay <spec> <trace> <stream>`\n";
      rc = 1;
      continue;
    }
    est::Spec spec = compile_with_warnings(load_spec_text(header.spec_ref));
    // trace_ref is relative to the stream's directory (fuzz sidecars).
    std::filesystem::path trace_path(header.trace_ref);
    if (trace_path.is_relative()) {
      trace_path = std::filesystem::path(path).parent_path() / trace_path;
    }
    tr::Trace trace =
        tr::parse_trace(spec, read_file(trace_path.string()));
    rc |= print_replay(path, obs::replay(spec, trace, rr.events), cli.verbose);
  }
  return rc;
}

int cmd_events(const Cli& cli) {
  if (cli.positional.empty()) return events_usage();
  const std::string& sub = cli.positional[0];
  if (sub == "check" && cli.positional.size() >= 2) {
    return cmd_events_check(cli);
  }
  if (sub == "stats" && cli.positional.size() >= 2) {
    return cmd_events_stats(cli);
  }
  if (sub == "diff") return cmd_events_diff(cli);
  if (sub == "replay") return cmd_events_replay(cli);
  return events_usage();
}

int cmd_print(const Cli& cli) {
  if (cli.positional.empty()) return usage();
  std::cout << est::print_spec(est::parse(load_spec_text(cli.positional[0])));
  return 0;
}

int cmd_specs() {
  for (const auto& [name, text] : specs::all_builtin_specs()) {
    est::Spec spec = est::compile_spec(text);
    std::cout << name << " — " << spec.body().transitions.size()
              << " transitions, " << spec.states.size() << " states, "
              << spec.ips.size() << " ips\n";
  }
  return 0;
}

int cmd_cat(const Cli& cli) {
  if (cli.positional.empty()) return usage();
  std::string_view text = specs::builtin_spec(cli.positional[0]);
  if (text.empty()) {
    std::cerr << "unknown built-in spec '" << cli.positional[0] << "'\n";
    return 2;
  }
  std::cout << text;
  return 0;
}

/// serve's signal flag: the handler only stores; the main thread watches
/// and runs the actual drain (signal-safe by construction).
std::atomic<int> g_stop_signal{0};

void on_stop_signal(int sig) { g_stop_signal.store(sig); }

/// Splits "host:port" ("" host = wildcard, port 0 = ephemeral). The last
/// ':' separates, so a future IPv6 "[::1]:0" parse has somewhere to grow.
std::pair<std::string, std::uint16_t> parse_host_port(const std::string& s,
                                                      const char* flag) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos) {
    throw UsageError(std::string(flag) + " expects <host:port>, got '" +
                         s + "'");
  }
  const std::uint16_t port = static_cast<std::uint16_t>(
      parse_flag_u64(flag, s.substr(colon + 1), 65535));
  return {s.substr(0, colon), port};
}

int cmd_serve(const Cli& cli) {
  auto registry = std::make_shared<srv::SpecRegistry>(
      srv::SpecRegistry::with_builtins());
  // Extra specs are preloaded under the path as typed — that's the ref
  // clients put in their hello frames.
  for (const std::string& path : cli.positional) {
    registry->preload(path, load_spec_text(path));
  }

  srv::ServerConfig cfg;
  if (!cli.listen.empty()) {
    const auto [host, port] = parse_host_port(cli.listen, "--listen");
    if (!host.empty()) cfg.host = host;
    cfg.port = port;
  }
  cfg.workers = cli.workers;
  cfg.queue_max = cli.queue_max;
  cfg.max_sessions = cli.max_sessions;
  cfg.session.default_options = cli.options;
  if (!cli.events_dir.empty()) {
    std::filesystem::create_directories(cli.events_dir);
    cfg.session.events_dir = cli.events_dir;
  }

  srv::Server server(registry, cfg);
  g_stop_signal.store(0);
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  server.start();
  // Tests and scripts parse this line for the ephemeral port; keep the
  // "listening on host:port" shape stable and flush it immediately.
  std::cout << "tango " << kTangoVersion << " listening on " << cfg.host
            << ":" << server.port() << " (" << registry->size()
            << " specs, " << cfg.workers << " workers, protocol "
            << srv::kProtocolVersion << ")" << std::endl;

  while (g_stop_signal.load() == 0 && !server.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  const int sig = g_stop_signal.load();
  if (sig != 0) {
    std::cerr << "tango: received "
              << (sig == SIGINT ? "SIGINT" : "SIGTERM")
              << ", draining sessions\n";
  }
  server.shutdown();
  std::cout << "served " << server.sessions_completed()
            << " session(s), rejected " << server.sessions_rejected()
            << " overloaded\n";
  return 0;
}

int cmd_submit(const Cli& cli) {
  if (cli.positional.empty()) return usage();
  if (cli.connect.empty()) {
    throw UsageError("submit needs --connect=<host:port>");
  }
  if (cli.spec_ref.empty()) {
    throw UsageError("submit needs --spec=<ref> (e.g. builtin:abp)");
  }
  srv::SubmitOptions so;
  const auto [host, port] = parse_host_port(cli.connect, "--connect");
  if (!host.empty()) so.host = host;
  so.port = port;
  so.spec = cli.spec_ref;
  so.order = core::order_name(cli.options);
  so.mode = cli.static_mode ? "static" : "online";
  so.chunk_size = cli.chunk_size;
  so.chunk_delay_ms = cli.chunk_delay_ms;
  so.options = cli.options;

  const std::string text = tr::read_trace_text(cli.positional[0]);
  const srv::SubmitResult r = srv::submit_trace(text, so);

  if (r.overloaded) {
    std::cerr << "tango: server overloaded: " << r.error << "\n";
    return 3;
  }
  if (!r.completed) {
    std::cerr << "tango: " << (r.error.empty() ? "session failed" : r.error)
              << "\n";
    return 2;
  }
  if (cli.verbose) {
    std::cerr << "server:  " << r.server_version << " (session "
              << r.session_id << ")\n";
    for (const std::string& s : r.interim) {
      std::cout << "interim: " << s << "\n";
    }
  }
  std::cout << "verdict: " << r.final_status << "\n";
  if (!r.reason.empty()) std::cout << "reason:  " << r.reason << "\n";
  if (cli.verbose) std::cout << "stats:   " << r.stats_json << "\n";
  return r.final_status == "valid" ? 0 : 1;
}

/// Runs `body`, turning an escaped exception into `tango: <what>`, exit 2.
template <typename Body>
int guarded(Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << "tango: " << e.what() << "\n";
    return 2;
  }
}

/// Moves the leading `<spec>` positional out of `cli` and loads it.
SpecSource take_spec(Cli& cli) {
  SpecSource source{cli.positional.front(), ""};
  cli.positional.erase(cli.positional.begin());
  source.text = load_spec_text(source.ref);
  return source;
}

}  // namespace

namespace tango::cli {

int tango_main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  return guarded([&] {
    Cli cli = parse_cli(argc, argv, 2);
    if (cmd == "help" || cmd == "--help" || cmd == "-h") return help();
    if (cmd == "--version" || cmd == "version") return print_version();
    if (cmd == "serve") return cmd_serve(cli);
    if (cmd == "submit") return cmd_submit(cli);
    if (cmd == "check") return cmd_check(cli);
    if (cmd == "analyze" || cmd == "online") {
      if (cli.positional.empty()) return usage();
      const SpecSource source = take_spec(cli);
      return cmd == "analyze" ? cmd_analyze(cli, source)
                              : cmd_online(cli, source);
    }
    if (cmd == "simulate") return cmd_simulate(cli);
    if (cmd == "generate-cpp") return cmd_generate_cpp(cli);
    if (cmd == "normal-form") return cmd_normal_form(cli);
    if (cmd == "workload") return cmd_workload(cli);
    if (cmd == "fuzz") return cmd_fuzz(cli);
    if (cmd == "lint") return cmd_lint(cli);
    if (cmd == "events") return cmd_events(cli);
    if (cmd == "coverage") return cmd_coverage(cli);
    if (cmd == "print") return cmd_print(cli);
    if (cmd == "specs") return cmd_specs();
    if (cmd == "cat") return cmd_cat(cli);
    return usage();
  });
}

int analyzer_main(std::string_view spec_ref, std::string_view spec_text,
                  int argc, char** argv) {
  const bool online = argc > 1 && std::string_view(argv[1]) == "online";
  return guarded([&] {
    const Cli cli = parse_cli(argc, argv, online ? 2 : 1);
    if (cli.positional.empty()) {
      std::cerr << "usage: " << argv[0] << " [online] <trace> [options]\n"
                << "trace analyzer for " << spec_ref
                << "; its options are `tango analyze`'s (`tango help`)\n";
      return 2;
    }
    const SpecSource source{std::string(spec_ref), std::string(spec_text)};
    return online ? cmd_online(cli, source) : cmd_analyze(cli, source);
  });
}

}  // namespace tango::cli
