// Whole-spec control-state invariant engine: interprocedural abstract
// interpretation over the module's control-state graph in the interval
// domain. Where dataflow.cpp analyzes each transition in isolation under
// declared-type entry bounds, this engine asks what the module variables
// can actually hold when each control state is entered:
//
//   * seed from every initializer's post-state,
//   * push each transition's transfer function (the interval_domain.hpp
//     abstract interpreter, RoutineEffects at call sites) from its source
//     state's invariant to its target state,
//   * join at target control states, widen toward trusted-aware type
//     bounds after kWidenAfter merges per state, iterate to fixpoint.
//
// The result is a per-(control state, module variable) invariant table
// plus a channel-flow pass computing which interactions can ever be
// emitted on each interaction point given only live code. Soundness
// direction is over-approximation throughout: every interval covers every
// concrete value, "reachable" covers every concretely enterable state, and
// "emittable" covers every concretely sendable interaction — so the
// negative facts (refuted pair, unreachable state, dead transition,
// never-emitted interaction) are proofs the lint reports.
//
// Proof discipline (same as the guard solver): if ANY provided clause is
// impure, evaluating it during search can move the module state outside
// this engine's transfer model, so the engine refuses wholesale
// (valid == false, no facts) rather than risk an unsound table.
#pragma once

#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/finding.hpp"
#include "analysis/interval_domain.hpp"
#include "estelle/spec.hpp"

namespace tango::analysis {

struct StateInvariants {
  /// False when the engine bailed (impure provided clause, or a spec with
  /// no control states): every table below is meaningless and no consumer
  /// may read it.
  bool valid = false;

  int n_states = 0;
  int n_transitions = 0;
  int n_module_vars = 0;
  int n_ips = 0;
  int n_interactions = 0;

  /// Flattened n_states*n_module_vars: what module variable v can hold
  /// whenever control state s is occupied. Bottom (lo > hi) rows for
  /// unreachable states.
  std::vector<Interval> bounds;
  /// Per control state: enterable in the fixpoint.
  std::vector<char> reachable;
  /// Flattened n_states*n_transitions: the transition's provided clause is
  /// definitely false under state s's invariant (only meaningful where s
  /// is reachable and s is one of the transition's source states).
  std::vector<char> refuted;
  /// Per transition: no reachable source state admits its provided clause
  /// — the transition can never fire.
  std::vector<char> dead;
  /// Flattened n_ips*n_interactions: some live initializer or transition
  /// (directly or through a called routine) can output the interaction on
  /// that ip.
  std::vector<char> emittable;

  [[nodiscard]] const Interval& bound(int s, int v) const {
    return bounds[static_cast<std::size_t>(s) *
                      static_cast<std::size_t>(n_module_vars) +
                  static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool is_reachable(int s) const {
    return reachable[static_cast<std::size_t>(s)] != 0;
  }
  [[nodiscard]] bool is_refuted(int s, int t) const {
    return refuted[static_cast<std::size_t>(s) *
                       static_cast<std::size_t>(n_transitions) +
                   static_cast<std::size_t>(t)] != 0;
  }
  [[nodiscard]] bool is_dead(int t) const {
    return dead[static_cast<std::size_t>(t)] != 0;
  }
  [[nodiscard]] bool is_emittable(int ip, int interaction) const {
    return emittable[static_cast<std::size_t>(ip) *
                         static_cast<std::size_t>(n_interactions) +
                     static_cast<std::size_t>(interaction)] != 0;
  }
};

/// Runs the whole-spec fixpoint. Pure function of the spec; `effects` must
/// come from compute_routine_effects(spec).
[[nodiscard]] StateInvariants compute_state_invariants(
    const est::Spec& spec, const std::vector<RoutineEffects>& effects);

/// The `invariants` lint pass: semantically dead transitions, control
/// states unreachable in the fixpoint, interactions only output from dead
/// code, and provable runtime faults that manifest only along
/// cross-transition paths (deduplicated against what the per-unit
/// `intervals` pass already reports). All findings are warnings — the
/// facts are proofs, but a spec with dead code still analyzes soundly.
[[nodiscard]] std::vector<Finding> invariant_findings(
    const est::Spec& spec, const std::vector<RoutineEffects>& effects,
    const StateInvariants& inv);

}  // namespace tango::analysis
