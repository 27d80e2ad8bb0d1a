#include "analysis/lint.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "analysis/dataflow.hpp"
#include "analysis/guard_solver.hpp"
#include "analysis/invariants.hpp"

namespace tango::analysis {

namespace {

using est::Spec;
using est::Stmt;
using est::StmtKind;
using est::Transition;

bool block_has_output(const Stmt& s) {
  if (s.kind == StmtKind::Output) return true;
  for (const est::StmtPtr& c : s.body) {
    if (c && block_has_output(*c)) return true;
  }
  for (const est::StmtPtr& c : s.otherwise) {
    if (c && block_has_output(*c)) return true;
  }
  for (const est::CaseArm& arm : s.arms) {
    if (arm.body && block_has_output(*arm.body)) return true;
  }
  if (s.s0 && block_has_output(*s.s0)) return true;
  if (s.s1 && block_has_output(*s.s1)) return true;
  return false;
}

SourceLoc state_loc(const Spec& spec, std::size_t ordinal) {
  return ordinal < spec.state_locs.size() ? spec.state_locs[ordinal]
                                          : SourceLoc{};
}

/// States reachable from the initializers' target states over the
/// transition graph (conservative: provided clauses ignored).
std::vector<char> reachable_states(const Spec& spec) {
  std::vector<char> seen(spec.states.size(), 0);
  std::deque<int> work;
  for (const est::Initializer& init : spec.body().initializers) {
    if (!seen[static_cast<std::size_t>(init.to_ordinal)]) {
      seen[static_cast<std::size_t>(init.to_ordinal)] = 1;
      work.push_back(init.to_ordinal);
    }
  }
  while (!work.empty()) {
    const int s = work.front();
    work.pop_front();
    for (const Transition& tr : spec.body().transitions) {
      if (!std::binary_search(tr.from_ordinals.begin(),
                              tr.from_ordinals.end(), s)) {
        continue;
      }
      const int to = tr.to_ordinal >= 0 ? tr.to_ordinal : s;  // `same`
      if (!seen[static_cast<std::size_t>(to)]) {
        seen[static_cast<std::size_t>(to)] = 1;
        work.push_back(to);
      }
    }
  }
  return seen;
}

void check_reachability(const Spec& spec, LintReport& report) {
  const std::vector<char> seen = reachable_states(spec);
  for (std::size_t s = 0; s < spec.states.size(); ++s) {
    if (!seen[s]) {
      report.findings.emplace_back(
          Severity::Warning, "reach", state_loc(spec, s),
          "state '" + spec.states[s] + "'",
          "state '" + spec.states[s] +
              "' is unreachable from every initial state");
    }
  }
  for (const Transition& tr : spec.body().transitions) {
    const bool fireable_somewhere = std::any_of(
        tr.from_ordinals.begin(), tr.from_ordinals.end(),
        [&](int s) { return seen[static_cast<std::size_t>(s)] != 0; });
    if (!fireable_somewhere) {
      report.findings.emplace_back(
          Severity::Warning, "reach", tr.loc, "transition '" + tr.name + "'",
          "transition '" + tr.name +
              "' can never fire: all of its source states are unreachable");
    }
  }
}

/// §2.1 footnote 1: cycles of spontaneous transitions that consume no
/// input and produce no output. Detected structurally over the graph of
/// spontaneous, output-free transitions; a cycle with no provided guard
/// anywhere is certain to foil DFS (error), a guarded one may (warning).
void check_non_progress_cycles(const Spec& spec, LintReport& report) {
  struct Edge {
    int to;
    bool guarded;
    const Transition* tr;
  };
  const auto n = spec.states.size();
  std::vector<std::vector<Edge>> graph(n);
  for (const Transition& tr : spec.body().transitions) {
    if (tr.when) continue;                     // consumes input: progress
    if (block_has_output(*tr.block)) continue; // produces output: progress
    for (int from : tr.from_ordinals) {
      const int to = tr.to_ordinal >= 0 ? tr.to_ordinal : from;
      graph[static_cast<std::size_t>(from)].push_back(
          Edge{to, tr.provided != nullptr, &tr});
    }
  }

  // DFS cycle detection; report each state that can re-reach itself.
  std::set<const Transition*> reported;
  for (std::size_t start = 0; start < n; ++start) {
    // BFS from each successor of `start` back to `start`.
    for (const Edge& first : graph[start]) {
      std::vector<char> seen(n, 0);
      std::deque<int> work{first.to};
      bool all_unguarded = !first.guarded;
      bool closes = first.to == static_cast<int>(start);
      while (!work.empty() && !closes) {
        const int s = work.front();
        work.pop_front();
        if (seen[static_cast<std::size_t>(s)]) continue;
        seen[static_cast<std::size_t>(s)] = 1;
        for (const Edge& e : graph[static_cast<std::size_t>(s)]) {
          if (e.to == static_cast<int>(start)) {
            closes = true;
            all_unguarded = all_unguarded && !e.guarded;
            break;
          }
          work.push_back(e.to);
        }
      }
      if (closes && reported.insert(first.tr).second) {
        report.findings.emplace_back(
            all_unguarded ? Severity::Error : Severity::Warning, "cycles",
            first.tr->loc, "transition '" + first.tr->name + "'",
            "transition '" + first.tr->name +
                "' starts a non-progress cycle (spontaneous, no output, "
                "returns to state '" + spec.states[start] + "')" +
                (all_unguarded
                     ? " with no provided guard anywhere: depth-first "
                       "trace analysis WILL diverge (paper §2.1)"
                     : "; a provided guard may bound it, but the cycle "
                       "can foil depth-first trace analysis (paper §2.1)"));
      }
    }
  }
}

void check_dead_interactions(const Spec& spec, LintReport& report) {
  std::vector<char> consumed(spec.interactions.size(), 0);
  std::vector<char> produced(spec.interactions.size(), 0);

  for (const Transition& tr : spec.body().transitions) {
    if (tr.when) {
      consumed[static_cast<std::size_t>(tr.when->interaction_id)] = 1;
    }
  }
  auto scan_outputs = [&](const Stmt& s, auto&& self) -> void {
    if (s.kind == StmtKind::Output) {
      produced[static_cast<std::size_t>(s.interaction_id)] = 1;
    }
    for (const est::StmtPtr& c : s.body) {
      if (c) self(*c, self);
    }
    for (const est::StmtPtr& c : s.otherwise) {
      if (c) self(*c, self);
    }
    for (const est::CaseArm& arm : s.arms) {
      if (arm.body) self(*arm.body, self);
    }
    if (s.s0) self(*s.s0, self);
    if (s.s1) self(*s.s1, self);
  };
  for (const Transition& tr : spec.body().transitions) {
    scan_outputs(*tr.block, scan_outputs);
  }
  for (const est::Routine& r : spec.body().routines) {
    scan_outputs(*r.body, scan_outputs);
  }
  for (const est::Initializer& init : spec.body().initializers) {
    if (init.block) scan_outputs(*init.block, scan_outputs);
  }

  for (const est::IpInfo& ip : spec.ips) {
    for (const auto& [name, id] : ip.inputs) {
      if (!consumed[static_cast<std::size_t>(id)]) {
        report.findings.emplace_back(
            Severity::Warning, "interactions", SourceLoc{},
            "ip '" + ip.name + "'",
            "input interaction '" + ip.name + "." + name +
                "' is never consumed by any transition");
      }
    }
    for (const auto& [name, id] : ip.outputs) {
      if (!produced[static_cast<std::size_t>(id)]) {
        report.findings.emplace_back(
            Severity::Warning, "interactions", SourceLoc{},
            "ip '" + ip.name + "'",
            "output interaction '" + ip.name + "." + name +
                "' is never produced by any transition");
      }
    }
  }
}

constexpr const char* kPassNames[] = {"reach",       "cycles",  "interactions",
                                      "assign",      "intervals",
                                      "unreachable", "purity",  "guards",
                                      "invariants"};

std::set<std::string> parse_passes(const std::string& passes) {
  std::set<std::string> on;
  if (passes.empty()) {
    for (const char* p : kPassNames) on.insert(p);
    return on;
  }
  std::size_t begin = 0;
  while (begin <= passes.size()) {
    std::size_t comma = passes.find(',', begin);
    if (comma == std::string::npos) comma = passes.size();
    const std::string name = passes.substr(begin, comma - begin);
    if (!name.empty()) {
      const bool known =
          std::any_of(std::begin(kPassNames), std::end(kPassNames),
                      [&](const char* p) { return name == p; });
      if (!known) {
        throw CompileError({}, "unknown lint pass '" + name +
                                   "' (expected a comma-separated subset of "
                                   "reach,cycles,interactions,assign,"
                                   "intervals,unreachable,purity,guards,"
                                   "invariants)");
      }
      on.insert(name);
    }
    begin = comma + 1;
  }
  return on;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  json_escape_into(out, s);
  out += '"';
  return out;
}

}  // namespace

std::string LintReport::render() const {
  std::string out;
  for (const Finding& f : findings) {
    if (f.loc.valid()) {
      out += tango::to_string(f.loc);
      out += ": ";
    }
    out += to_string(f.severity);
    out += ": [";
    out += f.pass;
    out += "] ";
    if (!f.unit.empty()) {
      out += f.unit;
      out += ": ";
    }
    out += f.message;
    out += '\n';
  }
  if (findings.empty()) out = "no findings\n";
  return out;
}

std::string LintReport::render_json(const std::string& source) const {
  std::string out = "{\"source\":" + quoted(source) + ",\"findings\":[";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out += ',';
    first = false;
    out += "{\"severity\":" + quoted(to_string(f.severity)) +
           ",\"pass\":" + quoted(f.pass) +
           ",\"line\":" + std::to_string(f.loc.line) +
           ",\"column\":" + std::to_string(f.loc.column);
    if (f.end.valid()) {
      out += ",\"end_line\":" + std::to_string(f.end.line) +
             ",\"end_column\":" + std::to_string(f.end.column);
    }
    out += ",\"unit\":" + quoted(f.unit) +
           ",\"message\":" + quoted(f.message) + "}";
  }
  out += "]}\n";
  return out;
}

std::string LintReport::render_sarif(const std::string& source) const {
  // SARIF "level" has no note; notes map to "note" (valid since 2.1.0).
  auto level = [](Severity s) {
    switch (s) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "none";
  };

  // One reportingDescriptor per pass that actually fired, sorted by id.
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.pass);

  std::string out =
      "{\"version\":\"2.1.0\",\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"runs\":[{\"tool\":{\"driver\":{\"name\":\"tango lint\","
      "\"rules\":[";
  bool first = true;
  for (const std::string& r : rules) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + quoted(r) + "}";
  }
  out += "]}},\"results\":[";
  first = true;
  for (const Finding& f : findings) {
    if (!first) out += ',';
    first = false;
    out += "{\"ruleId\":" + quoted(f.pass) +
           ",\"level\":" + quoted(level(f.severity)) +
           ",\"message\":{\"text\":" + quoted(f.message) + "}";
    if (f.loc.valid()) {
      const SourceLoc end = f.end.valid() ? f.end : f.loc;
      out += ",\"locations\":[{\"physicalLocation\":{"
             "\"artifactLocation\":{\"uri\":" + quoted(source) + "},"
             "\"region\":{\"startLine\":" + std::to_string(f.loc.line) +
             ",\"startColumn\":" + std::to_string(f.loc.column) +
             ",\"endLine\":" + std::to_string(end.line) +
             ",\"endColumn\":" + std::to_string(end.column) + "}}}]";
    }
    out += '}';
  }
  out += "]}]}\n";
  return out;
}

LintReport lint(const est::Spec& spec, const LintOptions& options) {
  const std::set<std::string> on = parse_passes(options.passes);
  LintReport report;
  if (on.count("reach")) check_reachability(spec, report);
  if (on.count("cycles")) check_non_progress_cycles(spec, report);
  if (on.count("interactions")) check_dead_interactions(spec, report);

  DataflowOptions df;
  df.assign = on.count("assign") != 0;
  df.intervals = on.count("intervals") != 0;
  df.unreachable = on.count("unreachable") != 0;
  df.purity = on.count("purity") != 0;
  if (df.assign || df.intervals || df.unreachable || df.purity) {
    std::vector<Finding> flow = run_dataflow(spec, df);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(flow.begin()),
                           std::make_move_iterator(flow.end()));
  }
  if (on.count("guards")) {
    std::vector<Finding> guards = analyze_guards(spec);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(guards.begin()),
                           std::make_move_iterator(guards.end()));
  }
  if (on.count("invariants")) {
    const std::vector<RoutineEffects> effects = compute_routine_effects(spec);
    const StateInvariants inv = compute_state_invariants(spec, effects);
    std::vector<Finding> facts = invariant_findings(spec, effects, inv);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(facts.begin()),
                           std::make_move_iterator(facts.end()));
  }
  sort_findings(report.findings);
  return report;
}

}  // namespace tango::analysis
