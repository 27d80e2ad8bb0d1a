// Guard implication solver. Normalizes every transition's provided clause
// into a conjunction of interval atoms over module variables and when
// parameters, then decides pairwise implication and mutual exclusion per
// (state, when-source) group:
//
//   * structurally duplicate transitions and transitions whose guard is
//     implied by a strictly-higher-priority competitor can never add
//     behavior — they are reported and entered into the skip set;
//   * provably disjoint module-variable guards feed a runtime matrix the
//     generate operation uses to skip doomed candidates early (fewer guard
//     evaluations and, under on-line analysis, fewer spurious
//     pending-generation marks);
//   * overlapping same-priority guards are reported as genuine
//     nondeterminism.
//
// Everything here is a PROOF or it is nothing: "unknown" never enters the
// matrix, so pruning cannot change verdicts (see docs/LINT.md).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/finding.hpp"
#include "estelle/spec.hpp"

namespace tango::analysis {

/// Facts the search consumes. Indexed by transition declaration index, the
/// same indexing as Spec::body().transitions.
struct GuardMatrix {
  int n = 0;
  /// Flattened n*n. mutex(i, j) == true proves: whenever transition i's
  /// provided clause evaluates to true at a node, transition j's clause is
  /// false at that node for EVERY possible when-parameter binding (the
  /// proof uses module-variable atoms only, which are conjuncts of i and
  /// of j). The disjointness core is symmetric but the entry also demands
  /// pure(j) — skipping j's evaluation must be unobservable — so consult
  /// mutex(i, j) with i as the guard that held.
  std::vector<char> mutex_rt;
  /// Guard purity per transition: no module/heap/output/parameter write is
  /// reachable from the provided clause. Only a pure guard may serve as
  /// the held side of a mutex skip, and evaluating an impure guard
  /// invalidates every previously-held fact within one generate (the
  /// evaluation itself may move the module state).
  std::vector<char> guard_is_pure;
  /// Transition can never contribute behavior (structural duplicate of an
  /// earlier transition, or always shadowed by a higher-priority one);
  /// the search may skip it without changing verdicts or witnesses.
  std::vector<char> skip;

  // ---- v2: whole-spec invariant facts (analysis/invariants.hpp) ---------
  //
  // Filled by augment_guard_matrix from a valid StateInvariants fixpoint;
  // empty (zero-sized vectors, n_states == 0) when the engine bailed (an
  // impure provided clause) or invariant pruning is off. The same proof
  // discipline applies: a fact is a whole-spec PROOF under the engine's
  // over-approximating semantics, so consuming it cannot change verdicts
  // or witnesses.

  int n_states = 0;
  int n_module_vars = 0;
  int n_ips = 0;
  int n_interactions = 0;
  /// Flattened n_states*n: transition j's provided clause is definitely
  /// false whenever control state i is entered (evaluated under the state's
  /// invariant bounds), so a candidate at that state can be skipped before
  /// its when-queue or guard is consulted. Only recorded for pure guards —
  /// the whole v2 layer is absent otherwise.
  std::vector<char> state_refuted_;
  /// Per control state: reachable in the fixpoint. The search can never
  /// occupy an unreachable state (debug-assert material; generate() never
  /// consults it for pruning).
  std::vector<char> state_reachable_;
  /// Flattened n_ips*n_interactions: interaction can NEVER be emitted on
  /// that ip by any live transition, initializer or callee. A pending
  /// output event matching a never-out entry dooms the whole subtree.
  std::vector<char> never_out_;
  /// Flattened n_states*n_module_vars invariant bounds — the debug-mode
  /// soundness oracle: every concrete scalar module value reached during
  /// search must lie inside its state's interval.
  std::vector<std::int64_t> inv_lo_, inv_hi_;

  /// Whether any state_refuted_ / never_out_ entry is set; computed where
  /// those tables are filled, since generate() asks on every node.
  bool any_state_refuted_ = false;
  bool any_never_out_ = false;

  [[nodiscard]] bool has_state_facts() const { return any_state_refuted_; }
  [[nodiscard]] bool has_never_out() const { return any_never_out_; }
  [[nodiscard]] bool has_invariants() const { return !inv_lo_.empty(); }
  [[nodiscard]] bool state_refuted(int s, int t) const {
    return state_refuted_[static_cast<std::size_t>(s) *
                              static_cast<std::size_t>(n) +
                          static_cast<std::size_t>(t)] != 0;
  }
  [[nodiscard]] bool state_reachable(int s) const {
    return state_reachable_[static_cast<std::size_t>(s)] != 0;
  }
  [[nodiscard]] bool never_out(int ip, int interaction) const {
    return never_out_[static_cast<std::size_t>(ip) *
                          static_cast<std::size_t>(n_interactions) +
                      static_cast<std::size_t>(interaction)] != 0;
  }

  [[nodiscard]] bool mutex(int i, int j) const {
    return mutex_rt[static_cast<std::size_t>(i) *
                        static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(j)] != 0;
  }
  [[nodiscard]] bool skippable(int i) const {
    return skip[static_cast<std::size_t>(i)] != 0;
  }
  [[nodiscard]] bool pure(int i) const {
    return guard_is_pure[static_cast<std::size_t>(i)] != 0;
  }
  [[nodiscard]] bool any_facts() const {
    for (char c : skip) {
      if (c != 0) return true;
    }
    for (char c : mutex_rt) {
      if (c != 0) return true;
    }
    // v2: invariant bounds alone keep the matrix alive — they change no
    // Release-mode behavior but feed the debug soundness assert.
    return has_state_facts() || has_never_out() || has_invariants();
  }
};

struct GuardAnalysis {
  GuardMatrix matrix;
  std::vector<Finding> findings;
};

/// Runs the solver over every transition pair. Pure function of the spec;
/// cost is O(n^2 * atoms), negligible beside any search.
[[nodiscard]] GuardAnalysis analyze_guards(const est::Spec& spec);

/// Subrange-typed module slots whose declared bounds CANNOT be trusted
/// (passed by reference to a routine that writes the parameter: stores
/// range-check against the parameter's type, not the actual's) get 0;
/// every other slot gets 1. Shared with the invariant engine, which must
/// widen untrusted slots to top instead of their declared bounds.
[[nodiscard]] std::vector<char> trusted_module_slots(
    const est::Spec& spec, const std::vector<RoutineEffects>& effects);

/// Whether skipping this provided clause's evaluation is unobservable:
/// every call it reaches must be effect-free, including var-parameter
/// write-back. Null guards are pure.
[[nodiscard]] bool provided_clause_pure(
    const est::Expr* guard, const std::vector<RoutineEffects>& effects);

}  // namespace tango::analysis
