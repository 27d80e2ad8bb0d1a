#include "core/options.hpp"

#include <algorithm>

#include "analysis/invariants.hpp"

namespace tango::core {

std::string Options::order_mode_name() const {
  if (check_input_wrt_output && check_output_wrt_input && check_ip_order) {
    return "FULL";
  }
  if (check_input_wrt_output && check_output_wrt_input) return "IO";
  if (check_ip_order) return "IP";
  if (!check_input_wrt_output && !check_output_wrt_input) return "NR";
  return check_input_wrt_output ? "I/O only" : "O/I only";
}

ResolvedOptions::ResolvedOptions(const est::Spec& spec, const Options& opts)
    : base(&opts),
      disabled(spec.ips.size(), 0),
      unobservable(spec.ips.size(), 0) {
  // Guard-solver pruning facts. The solver's proofs assume standard
  // (defined-value) expression semantics and real when-bindings, so the
  // matrix is only built when neither partial mode nor unobservable ips
  // are in play; an empty matrix isn't worth the per-generate() checks.
  if (opts.static_prune && !opts.partial && opts.unobservable_ips.empty()) {
    if (opts.prebuilt_guard_matrix != nullptr) {
      // Server fast path: adopt the registry's pre-analyzed matrix (one
      // solver + fixpoint run at startup instead of one per session). An
      // empty matrix stays null so generate() skips the per-candidate
      // checks, same as the computed path below.
      if (opts.prebuilt_guard_matrix->any_facts()) {
        guard_matrix = opts.prebuilt_guard_matrix;
      }
    } else {
      build_guard_matrix(spec, opts);
    }
  }
  for (const std::string& name : opts.disabled_ips) {
    const int ip = spec.ip_index(name);
    if (ip < 0) {
      throw UsageError("disable-ip option names unknown ip '" + name + "'");
    }
    disabled[static_cast<std::size_t>(ip)] = 1;
  }
  for (const std::string& name : opts.unobservable_ips) {
    const int ip = spec.ip_index(name);
    if (ip < 0) {
      throw UsageError("unobservable-ip option names unknown ip '" + name +
                       "'");
    }
    unobservable[static_cast<std::size_t>(ip)] = 1;
  }
  std::size_t longest = 0;
  for (const est::Transition& tr : spec.body().transitions) {
    if (tr.when) longest = std::max(longest, tr.when->param_types.size());
  }
  undefined_params_.resize(longest);
}

void ResolvedOptions::build_guard_matrix(const est::Spec& spec,
                                         const Options& opts) {
  analysis::GuardAnalysis ga = analysis::analyze_guards(spec);
  // Whole-spec invariant facts ride on the same matrix (v2 fields).
  // Initial-state search re-enters arbitrary FSM states after the
  // initializer, which breaks the fixpoint's "seeded from initializers"
  // premise — the per-state facts would be unsound there.
  if (opts.invariant_prune && !opts.initial_state_search) {
    const std::vector<analysis::RoutineEffects> effects =
        analysis::compute_routine_effects(spec);
    const analysis::StateInvariants inv =
        analysis::compute_state_invariants(spec, effects);
    analysis::augment_guard_matrix(spec, inv, ga.matrix);
  }
  if (ga.matrix.any_facts()) {
    guard_matrix = std::make_shared<const analysis::GuardMatrix>(
        std::move(ga.matrix));
  }
}

}  // namespace tango::core
