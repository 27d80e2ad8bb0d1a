// Guard implication solver. Normalizes every transition's provided clause
// into a conjunction of interval atoms over module variables and when
// parameters, then decides pairwise implication and disjointness per
// (state, when-source) group, for the `guards` lint pass:
//
//   * always-false guards, structurally duplicate transitions and
//     transitions whose guard is implied by a strictly-higher-priority
//     competitor can never add behavior — each is reported once;
//   * overlapping same-priority guards are reported as genuine
//     nondeterminism.
//
// Everything here is a PROOF or it is nothing: an "unknown" outcome is
// never reported as a fact (see docs/LINT.md).
#pragma once

#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/finding.hpp"
#include "estelle/spec.hpp"

namespace tango::analysis {

/// Runs the solver over every transition pair and returns the `guards`
/// pass's findings. Pure function of the spec; cost is O(n^2 * atoms).
[[nodiscard]] std::vector<Finding> analyze_guards(const est::Spec& spec);

/// Subrange-typed module slots whose declared bounds CANNOT be trusted
/// (passed by reference to a routine that writes the parameter: stores
/// range-check against the parameter's type, not the actual's) get 0;
/// every other slot gets 1. Shared with the invariant engine, which must
/// widen untrusted slots to top instead of their declared bounds.
[[nodiscard]] std::vector<char> trusted_module_slots(
    const est::Spec& spec, const std::vector<RoutineEffects>& effects);

/// Whether evaluating this provided clause has no observable effect:
/// every call it reaches must be effect-free, including var-parameter
/// write-back. Null guards are pure.
[[nodiscard]] bool provided_clause_pure(
    const est::Expr* guard, const std::vector<RoutineEffects>& effects);

}  // namespace tango::analysis
