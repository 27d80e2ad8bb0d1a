#include "analysis/invariants.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "analysis/cfg.hpp"
#include "analysis/guard_solver.hpp"

namespace tango::analysis {

namespace {

using est::Expr;
using est::ExprKind;
using est::NameRef;
using est::Routine;
using est::Spec;
using est::Stmt;
using est::StmtKind;
using est::Transition;

// ---------------------------------------------------------------------------
// Transfer plumbing: one cached abstract interpreter per unit
// ---------------------------------------------------------------------------

/// Everything the fixpoint needs to push one unit's transfer function
/// repeatedly: its CFG (when it has a block) and an IntervalPass whose
/// module bounds are the trusted-aware ones (top for subrange slots a
/// var-parameter store can push out of range — the declared-bounds clobber
/// reset in the per-unit pass would be unsound there).
struct UnitSolver {
  const Unit* unit = nullptr;
  FrameInfo frame;
  Cfg cfg;
  bool has_cfg = false;
  IntervalPass pass;
  IntervalEnv widen_to;  // raw trusted-aware bounds env

  UnitSolver(const Spec& spec, const Unit& u,
             const std::vector<RoutineEffects>& effects,
             const std::vector<Interval>& trusted_bounds)
      : unit(&u), frame(frame_info(u)), pass(spec, u, frame, effects) {
    pass.set_module_bounds(trusted_bounds);
    pass.set_when_bounds_top();
    if (u.block != nullptr) {
      cfg = build_cfg(*u.block);
      has_cfg = true;
    }
    widen_to = pass.entry_env_raw();
  }

  /// Is the provided clause definitely false when entered with `menv`?
  bool refuted(const std::vector<Interval>& menv) {
    if (unit->provided == nullptr) return false;
    IntervalEnv entry = pass.entry_env_raw();
    entry.module = menv;
    const Interval g = pass.eval(*unit->provided, entry);
    return !g.bot() && g.hi <= 0;
  }

  /// Module env at normal exit, entered with `menv`, provided clause
  /// assumed true. nullopt: the unit can never complete from here (clause
  /// refuted, or every path to exit is abstractly infeasible). The
  /// optional wrapper matters: a module with zero variables has an empty
  /// env on a perfectly normal exit.
  std::optional<std::vector<Interval>> post_module(
      const std::vector<Interval>& menv) {
    IntervalEnv entry = pass.entry_env_raw();
    entry.module = menv;
    if (unit->provided != nullptr) {
      const Interval g = pass.eval(*unit->provided, entry);
      if (!g.bot() && g.hi <= 0) return std::nullopt;
      pass.refine(entry, *unit->provided, true);
    }
    if (!has_cfg) return entry.module;
    const std::vector<IntervalEnv> in =
        solve_intervals(cfg, pass, entry, widen_to);
    const IntervalEnv& exit = in[static_cast<std::size_t>(cfg.exit)];
    if (exit.bot) return std::nullopt;
    return exit.module;
  }
};

// ---------------------------------------------------------------------------
// Channel flow: which (ip, interaction) pairs can live code output?
// ---------------------------------------------------------------------------

struct OutScan {
  std::set<std::pair<int, int>> outs;  // (ip_index, interaction_id)
  std::set<int> callees;               // routine indices
};

void scan_out_expr(const Expr& e, OutScan& out) {
  if (e.kind == ExprKind::Call && e.builtin == est::Builtin::None &&
      e.routine_index >= 0) {
    out.callees.insert(e.routine_index);
  }
  if (e.kind == ExprKind::Name && e.ref == NameRef::Call0) {
    out.callees.insert(e.slot);
  }
  for (const est::ExprPtr& c : e.children) {
    if (c) scan_out_expr(*c, out);
  }
}

void scan_out_stmt(const Stmt& s, OutScan& out) {
  if (s.kind == StmtKind::Output && s.ip_index >= 0 &&
      s.interaction_id >= 0) {
    out.outs.insert({s.ip_index, s.interaction_id});
  }
  if (s.kind == StmtKind::Call && s.builtin == est::Builtin::None &&
      s.routine_index >= 0) {
    out.callees.insert(s.routine_index);
  }
  if (s.e0) scan_out_expr(*s.e0, out);
  if (s.e1) scan_out_expr(*s.e1, out);
  for (const est::ExprPtr& a : s.args) {
    if (a) scan_out_expr(*a, out);
  }
  if (s.s0) scan_out_stmt(*s.s0, out);
  if (s.s1) scan_out_stmt(*s.s1, out);
  for (const est::StmtPtr& c : s.body) {
    if (c) scan_out_stmt(*c, out);
  }
  for (const est::CaseArm& arm : s.arms) {
    if (arm.body) scan_out_stmt(*arm.body, out);
  }
  for (const est::StmtPtr& c : s.otherwise) {
    if (c) scan_out_stmt(*c, out);
  }
}

/// Per-routine transitive output sets (a fixpoint mirroring
/// compute_routine_effects, but carrying the concrete (ip, interaction)
/// pairs instead of a has_output bit).
std::vector<std::set<std::pair<int, int>>> routine_out_sets(
    const Spec& spec) {
  const std::vector<Routine>& routines = spec.body().routines;
  std::vector<OutScan> scans(routines.size());
  for (std::size_t i = 0; i < routines.size(); ++i) {
    if (routines[i].body) scan_out_stmt(*routines[i].body, scans[i]);
  }
  std::vector<std::set<std::pair<int, int>>> outs(routines.size());
  for (std::size_t i = 0; i < routines.size(); ++i) {
    outs[i] = scans[i].outs;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < routines.size(); ++i) {
      for (int callee : scans[i].callees) {
        if (callee < 0 || static_cast<std::size_t>(callee) >= outs.size()) {
          continue;
        }
        for (const auto& p : outs[static_cast<std::size_t>(callee)]) {
          changed |= outs[i].insert(p).second;
        }
      }
    }
  }
  return outs;
}

/// Every (ip, interaction) a unit can output, including through callees —
/// over-approximate: all branches count, feasible or not.
void unit_emit_set(
    const Unit& u,
    const std::vector<std::set<std::pair<int, int>>>& routine_outs,
    std::set<std::pair<int, int>>& into) {
  if (u.block == nullptr) return;
  OutScan scan;
  scan_out_stmt(*u.block, scan);
  into.insert(scan.outs.begin(), scan.outs.end());
  for (int callee : scan.callees) {
    if (callee >= 0 && static_cast<std::size_t>(callee) <
                           routine_outs.size()) {
      const auto& co = routine_outs[static_cast<std::size_t>(callee)];
      into.insert(co.begin(), co.end());
    }
  }
}

/// Syntactic control-state reachability (transition edges with guards
/// ignored), used to deduplicate against the `reach` lint pass: the
/// invariants pass only reports states the syntactic BFS can reach but the
/// fixpoint cannot.
std::vector<char> syntactic_reach(const Spec& spec) {
  std::vector<char> seen(spec.states.size(), 0);
  std::deque<int> wl;
  auto visit = [&](int s) {
    if (s >= 0 && static_cast<std::size_t>(s) < seen.size() &&
        seen[static_cast<std::size_t>(s)] == 0) {
      seen[static_cast<std::size_t>(s)] = 1;
      wl.push_back(s);
    }
  };
  for (const est::Initializer& init : spec.body().initializers) {
    visit(init.to_ordinal);
  }
  while (!wl.empty()) {
    const int s = wl.front();
    wl.pop_front();
    for (int ti : spec.transitions_by_state[static_cast<std::size_t>(s)]) {
      const Transition& t =
          spec.body().transitions[static_cast<std::size_t>(ti)];
      visit(t.to_ordinal >= 0 ? t.to_ordinal : s);
    }
  }
  return seen;
}

}  // namespace

// ---------------------------------------------------------------------------
// The whole-spec fixpoint
// ---------------------------------------------------------------------------

StateInvariants compute_state_invariants(
    const Spec& spec, const std::vector<RoutineEffects>& effects) {
  StateInvariants inv;
  inv.n_states = static_cast<int>(spec.states.size());
  inv.n_transitions = static_cast<int>(spec.body().transitions.size());
  inv.n_module_vars = static_cast<int>(spec.module_vars.size());
  inv.n_ips = static_cast<int>(spec.ips.size());
  inv.n_interactions = static_cast<int>(spec.interactions.size());
  const auto ns = static_cast<std::size_t>(inv.n_states);
  const auto nt = static_cast<std::size_t>(inv.n_transitions);
  const auto nv = static_cast<std::size_t>(inv.n_module_vars);
  inv.bounds.assign(ns * nv, Interval{});  // default = bottom
  inv.reachable.assign(ns, 0);
  inv.refuted.assign(ns * nt, 0);
  inv.dead.assign(nt, 0);
  inv.emittable.assign(static_cast<std::size_t>(inv.n_ips) *
                           static_cast<std::size_t>(inv.n_interactions),
                       0);
  if (inv.n_states == 0) return inv;  // valid stays false: nothing to prove

  // Proof discipline: an impure provided clause evaluated during generate()
  // can move the module state outside this engine's transfer model (which
  // only applies transition BODIES between states). Refuse wholesale.
  const est::BodyDef& body = spec.body();
  for (const est::Initializer& init : body.initializers) {
    if (!provided_clause_pure(init.provided.get(), effects)) return inv;
  }
  for (const Transition& t : body.transitions) {
    if (!provided_clause_pure(t.provided.get(), effects)) return inv;
  }

  // Trusted-aware bounds: slots whose declared subrange a var-parameter
  // store can escape get top (see trusted_module_slots).
  const std::vector<char> trusted = trusted_module_slots(spec, effects);
  std::vector<Interval> tb(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    tb[v] = trusted[v] != 0 ? bounds_or_top(spec.module_vars[v].type)
                            : Interval::top();
  }

  // One solver per unit; collect_units orders initializers, then
  // transitions, then routines.
  const std::vector<Unit> units = collect_units(spec);
  const std::size_t n_inits = body.initializers.size();
  std::vector<UnitSolver> solvers;
  solvers.reserve(n_inits + nt);
  for (std::size_t i = 0; i < n_inits + nt; ++i) {
    solvers.emplace_back(spec, units[i], effects, tb);
  }

  // State environments. A state is reachable once any initializer or
  // transition lands in it; its env only grows (hull, widened toward tb
  // after kWidenAfter merges), so the worklist terminates.
  std::vector<std::vector<Interval>> env(ns);
  std::vector<char> reached(ns, 0);
  std::vector<int> merges(ns, 0);
  std::deque<int> wl;
  std::vector<char> queued(ns, 0);

  const auto join_into = [&](int target, const std::vector<Interval>& post) {
    const auto st = static_cast<std::size_t>(target);
    if (reached[st] == 0) {
      env[st] = post;
      for (std::size_t v = 0; v < nv; ++v) {
        env[st][v] = meet(env[st][v], tb[v]);
      }
      reached[st] = 1;
      if (queued[st] == 0) {
        queued[st] = 1;
        wl.push_back(target);
      }
      return;
    }
    const bool widen = ++merges[st] > kWidenAfter;
    bool grown = false;
    for (std::size_t v = 0; v < nv; ++v) {
      const Interval src = meet(post[v], tb[v]);
      Interval h = hull(env[st][v], src);
      if (widen && (h.lo < env[st][v].lo || h.hi > env[st][v].hi)) {
        if (h.lo < env[st][v].lo) h.lo = tb[v].lo;
        if (h.hi > env[st][v].hi) h.hi = tb[v].hi;
      }
      if (h.lo != env[st][v].lo || h.hi != env[st][v].hi) {
        env[st][v] = h;
        grown = true;
      }
    }
    if (grown && queued[st] == 0) {
      queued[st] = 1;
      wl.push_back(target);
    }
  };

  // Seed: initializer post-states. Module variables start undefined — any
  // read before write faults and aborts that execution, so the trusted
  // bounds are a sound entry abstraction for every non-faulting path.
  for (std::size_t i = 0; i < n_inits; ++i) {
    const est::Initializer& init = body.initializers[i];
    if (init.to_ordinal < 0) continue;
    const std::optional<std::vector<Interval>> post =
        solvers[i].post_module(tb);
    if (!post) continue;  // provided refuted / no normal exit
    join_into(init.to_ordinal, *post);
  }

  // Iterate transitions to fixpoint.
  while (!wl.empty()) {
    const int s = wl.front();
    wl.pop_front();
    queued[static_cast<std::size_t>(s)] = 0;
    // env[s] may grow while s sits queued; snapshot per pop.
    const std::vector<Interval> at = env[static_cast<std::size_t>(s)];
    for (int ti : spec.transitions_by_state[static_cast<std::size_t>(s)]) {
      const Transition& t =
          body.transitions[static_cast<std::size_t>(ti)];
      UnitSolver& solver = solvers[n_inits + static_cast<std::size_t>(ti)];
      const std::optional<std::vector<Interval>> post = solver.post_module(at);
      if (!post) continue;
      join_into(t.to_ordinal >= 0 ? t.to_ordinal : s, *post);
    }
  }

  // Post-fixpoint tables, computed against the final (largest) envs so
  // every recorded refutation is a proof over the whole fixpoint.
  inv.reachable = reached;
  for (std::size_t s = 0; s < ns; ++s) {
    if (reached[s] == 0) continue;
    for (std::size_t v = 0; v < nv; ++v) {
      inv.bounds[s * nv + v] = env[s][v];
    }
  }
  for (std::size_t s = 0; s < ns; ++s) {
    if (reached[s] == 0) continue;
    for (int ti : spec.transitions_by_state[s]) {
      UnitSolver& solver = solvers[n_inits + static_cast<std::size_t>(ti)];
      if (solver.refuted(env[s])) {
        inv.refuted[s * nt + static_cast<std::size_t>(ti)] = 1;
      }
    }
  }
  for (std::size_t ti = 0; ti < nt; ++ti) {
    const Transition& t = body.transitions[ti];
    bool can_fire = false;
    for (int from : t.from_ordinals) {
      const auto sf = static_cast<std::size_t>(from);
      if (sf < ns && reached[sf] != 0 && inv.refuted[sf * nt + ti] == 0) {
        can_fire = true;
        break;
      }
    }
    inv.dead[ti] = can_fire ? 0 : 1;
  }

  // Channel flow over live code only: initializers (those that can
  // complete) and non-dead transitions, plus everything their callees can
  // output.
  const std::vector<std::set<std::pair<int, int>>> routine_outs =
      routine_out_sets(spec);
  std::set<std::pair<int, int>> emit;
  for (std::size_t i = 0; i < n_inits; ++i) {
    if (!solvers[i].refuted(tb)) {
      unit_emit_set(units[i], routine_outs, emit);
    }
  }
  for (std::size_t ti = 0; ti < nt; ++ti) {
    if (inv.dead[ti] == 0) {
      unit_emit_set(units[n_inits + ti], routine_outs, emit);
    }
  }
  for (const auto& [ip, id] : emit) {
    if (ip >= 0 && ip < inv.n_ips && id >= 0 && id < inv.n_interactions) {
      inv.emittable[static_cast<std::size_t>(ip) *
                        static_cast<std::size_t>(inv.n_interactions) +
                    static_cast<std::size_t>(id)] = 1;
    }
  }

  inv.valid = true;
  return inv;
}

// ---------------------------------------------------------------------------
// The `invariants` lint pass
// ---------------------------------------------------------------------------

std::vector<Finding> invariant_findings(
    const Spec& spec, const std::vector<RoutineEffects>& effects,
    const StateInvariants& inv) {
  std::vector<Finding> findings;
  if (!inv.valid) return findings;
  const est::BodyDef& body = spec.body();
  const auto nt = static_cast<std::size_t>(inv.n_transitions);
  const auto nv = static_cast<std::size_t>(inv.n_module_vars);

  // 1. Control states the syntactic graph reaches but the fixpoint proves
  //    unenterable (the purely syntactic case is the `reach` pass's).
  const std::vector<char> syntactic = syntactic_reach(spec);
  for (std::size_t s = 0; s < static_cast<std::size_t>(inv.n_states); ++s) {
    if (syntactic[s] == 0 || inv.reachable[s] != 0) continue;
    findings.emplace_back(
        Severity::Warning, "invariants", spec.state_locs[s],
        "state '" + spec.states[s] + "'",
        "control state '" + spec.states[s] +
            "' is unreachable in the interval fixpoint: every transition "
            "entering it is refuted by the state invariants");
  }

  // Baseline per-transition interval pass (declared bounds, exactly what
  // the `intervals` pass runs) — used twice: to drop dead-transition
  // reports the `guards` pass already made (state-independent
  // contradiction) and to deduplicate fault findings by location.
  const std::vector<Unit> units = collect_units(spec);
  const std::size_t n_inits = body.initializers.size();
  const std::vector<char> trusted = trusted_module_slots(spec, effects);
  std::vector<Interval> tb(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    tb[v] = trusted[v] != 0 ? bounds_or_top(spec.module_vars[v].type)
                            : Interval::top();
  }

  for (std::size_t ti = 0; ti < nt; ++ti) {
    const Transition& t = body.transitions[ti];
    const Unit& u = units[n_inits + ti];
    const std::string label = "transition '" + t.name + "'";

    if (inv.is_dead(static_cast<int>(ti))) {
      // Which flavour of dead? All sources unreachable, or the clause
      // refuted at every reachable source. State-independent
      // contradictions (refuted even under plain type bounds) belong to
      // the `guards` pass; syntactically-unreachable sources to `reach`.
      bool any_reachable_source = false;
      bool any_syntactic_source = false;
      for (int from : t.from_ordinals) {
        const auto sf = static_cast<std::size_t>(from);
        if (inv.reachable[sf] != 0) any_reachable_source = true;
        if (syntactic[sf] != 0) any_syntactic_source = true;
      }
      if (!any_reachable_source) {
        if (any_syntactic_source) {
          findings.emplace_back(
              Severity::Warning, "invariants", t.loc, label,
              label + " can never fire: no source state is reachable in "
                      "the interval fixpoint");
        }
        continue;  // purely syntactic case: `reach` already reports it
      }
      UnitSolver base(spec, u, effects, tb);
      if (base.refuted(tb)) continue;  // `guards` already reports it
      findings.emplace_back(
          Severity::Warning, "invariants", t.loc, label,
          label + " is semantically dead: its provided clause is "
                  "unsatisfiable under the invariant of every reachable "
                  "source state");
      continue;
    }

    // 4. Cross-transition provable faults: re-run the reporting pass with
    //    the join of the live source-state invariants as the module entry
    //    env; keep only findings the declared-bounds baseline run does not
    //    produce at the same location.
    if (u.block == nullptr) continue;
    std::vector<Interval> entry_mod(nv, Interval{});
    for (int from : t.from_ordinals) {
      const auto sf = static_cast<std::size_t>(from);
      if (inv.reachable[sf] == 0 ||
          inv.refuted[sf * nt + ti] != 0) {
        continue;
      }
      for (std::size_t v = 0; v < nv; ++v) {
        entry_mod[v] = hull(entry_mod[v], inv.bound(static_cast<int>(sf),
                                                    static_cast<int>(v)));
      }
    }

    std::vector<Finding> baseline;
    {
      const FrameInfo frame = frame_info(u);
      IntervalPass pass(spec, u, frame, effects);
      const Cfg cfg = build_cfg(*u.block);
      const IntervalEnv entry = pass.entry_env();
      const std::vector<IntervalEnv> in =
          solve_intervals(cfg, pass, entry, entry);
      for (int id : cfg.reverse_post_order()) {
        const IntervalEnv& e = in[static_cast<std::size_t>(id)];
        if (!e.bot) pass.report_node(cfg.node(id), e, baseline);
      }
    }
    std::set<std::pair<int, int>> baseline_locs;
    for (const Finding& f : baseline) {
      baseline_locs.insert({f.loc.line, f.loc.column});
    }

    std::vector<Finding> seeded;
    {
      UnitSolver solver(spec, u, effects, tb);
      IntervalEnv entry = solver.pass.entry_env_raw();
      entry.module = entry_mod;
      if (u.provided != nullptr) {
        solver.pass.refine(entry, *u.provided, true);
      }
      const std::vector<IntervalEnv> in =
          solve_intervals(solver.cfg, solver.pass, entry, solver.widen_to);
      for (int id : solver.cfg.reverse_post_order()) {
        const IntervalEnv& e = in[static_cast<std::size_t>(id)];
        if (!e.bot) solver.pass.report_node(solver.cfg.node(id), e, seeded);
      }
    }
    for (const Finding& f : seeded) {
      if (baseline_locs.count({f.loc.line, f.loc.column}) != 0) continue;
      findings.emplace_back(Severity::Warning, "invariants", f.loc, label,
                            f.message +
                                " (provable only across transitions, from "
                                "the control-state invariant)");
    }
  }

  // 3. Interactions with syntactic output sites that are all statically
  //    dead (no site at all is the `interactions` pass's case).
  {
    std::set<std::pair<int, int>> all_sites;
    const std::vector<std::set<std::pair<int, int>>> routine_outs =
        routine_out_sets(spec);
    for (std::size_t i = 0; i < n_inits + nt; ++i) {
      unit_emit_set(units[i], routine_outs, all_sites);
    }
    for (const auto& [ip, id] : all_sites) {
      if (ip < 0 || ip >= inv.n_ips || id < 0 ||
          id >= inv.n_interactions) {
        continue;
      }
      if (inv.is_emittable(ip, id)) continue;
      findings.emplace_back(
          Severity::Warning, "invariants", SourceLoc{},
          "ip '" + spec.ips[static_cast<std::size_t>(ip)].name + "'",
          "interaction '" + spec.interaction(id).name + "' can never be "
              "output on ip '" +
              spec.ips[static_cast<std::size_t>(ip)].name +
              "': every output site is statically dead");
    }
  }

  return findings;
}

}  // namespace tango::analysis
