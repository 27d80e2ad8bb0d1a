#include "core/generator.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tango::core {

namespace {

/// Effective priority: Estelle priority clauses rank smaller-is-higher;
/// transitions without one rank below all prioritized transitions.
std::int64_t effective_priority(const est::Transition& tr) {
  return tr.priority.value_or(std::numeric_limits<std::int64_t>::max());
}

#ifndef NDEBUG
/// Fixpoint soundness oracle: every concrete state the search reaches must
/// be covered by the whole-spec invariant table — the occupied control
/// state reachable, every defined scalar module value inside its interval.
/// A violation here is an invariant-engine bug, never a spec bug.
bool invariants_hold(const analysis::GuardMatrix& gm, const SearchState& st) {
  if (!gm.has_invariants()) return true;
  const int s = st.machine.fsm_state;
  if (s < 0 || s >= gm.n_states) return true;  // pre-initialize
  if (!gm.state_reachable(s)) return false;
  const auto nv = static_cast<std::size_t>(gm.n_module_vars);
  const std::size_t limit = std::min(nv, st.machine.vars.size());
  for (std::size_t v = 0; v < limit; ++v) {
    const rt::Value& val = st.machine.vars[v];
    if (val.is_undefined() || !val.is_scalar()) continue;
    const std::size_t i = static_cast<std::size_t>(s) * nv + v;
    if (val.scalar() < gm.inv_lo_[i] || val.scalar() > gm.inv_hi_[i]) {
      return false;
    }
  }
  return true;
}
#endif

}  // namespace

std::span<const rt::Value> when_args(const Firing& firing,
                                     const tr::Trace& trace,
                                     const ResolvedOptions& ro,
                                     const est::Transition& tr) {
  if (firing.input_event >= 0) {
    return trace.event(static_cast<std::uint32_t>(firing.input_event)).params;
  }
  if (firing.synthesized) {
    return ro.undefined_params(tr.when->param_types.size());
  }
  return {};
}

GenResult generate(rt::Interp& interp, const tr::Trace& trace,
                   const ResolvedOptions& ro, SearchState& st, Stats& stats,
                   const ObsCtx& obs, std::vector<Firing> storage) {
  ++stats.generates;
  GenResult out;
  storage.clear();
  out.firings = std::move(storage);
  const est::Spec& spec = interp.spec();
  const auto& transitions = spec.body().transitions;
  const auto& applicable = spec.transitions_by_state[static_cast<std::size_t>(
      st.machine.fsm_state)];

  // Guard-solver facts (static-prune). The pure candidates among the
  // firings listed since the last impure guard evaluation are the ones
  // whose provided clause held in the current module state; a later
  // candidate proven mutually exclusive with any of them is skipped before
  // its when-queue is consulted (so it can't spuriously mark the node PG —
  // the skip is exactly the "provided is false" outcome, decided early).
  const analysis::GuardMatrix* gm = ro.guard_matrix.get();
  std::size_t held_from = 0;  // first firing after the last impure guard
  assert(gm == nullptr || invariants_hold(*gm, st));

  const auto emit_static_skip = [&](int ti) {
    if (obs.sink == nullptr) return;
    obs::Event e;
    e.kind = obs::EventKind::PruneStatic;
    e.parent = obs.node;
    e.worker = obs.worker;
    e.depth = obs.depth;
    e.transition = ti;
    obs.sink->emit(e);
  };

  // Doomed-output cut (invariant-prune): when the complete trace still has
  // a pending output that NO live code can ever emit on that ip, no
  // continuation from this node can consume it, so the whole subtree is
  // dead — every candidate is skipped up front. Only sound at eof: a
  // growing trace's unpruned search would instead mark nodes PG/incomplete
  // here, and the verdicts must match. Disabled ips are exempt (their
  // outputs are never checked, §2.4.3).
  if (gm != nullptr && gm->has_never_out() && trace.eof()) {
    for (int ip = 0; ip < gm->n_ips; ++ip) {
      if (ro.is_disabled(ip)) continue;
      const std::uint32_t seq =
          st.cursors.next_seq(trace, ip, tr::Dir::Out);
      if (seq == std::numeric_limits<std::uint32_t>::max()) continue;
      if (!gm->never_out(ip, trace.event(seq).interaction)) continue;
      for (int ti : applicable) {
        ++stats.static_skips;
        emit_static_skip(ti);
      }
      ++stats.fanout_samples;
      return out;
    }
  }

  const int fsm = st.machine.fsm_state;
  const bool state_facts = gm != nullptr && gm->has_state_facts() &&
                           fsm >= 0 && fsm < gm->n_states;

  for (int ti : applicable) {
    if (gm != nullptr) {
      if (gm->skippable(ti)) {
        ++stats.static_skips;
        emit_static_skip(ti);
        continue;
      }
      // Invariant-refuted pair: the provided clause is definitely false
      // under this control state's invariant — same outcome as evaluating
      // it, decided without touching the when-queue (so it can't mark the
      // node PG either, exactly like the mutex skip below).
      if (state_facts && gm->state_refuted(fsm, ti)) {
        ++stats.static_skips;
        emit_static_skip(ti);
        continue;
      }
      bool excluded = false;
      for (std::size_t k = held_from; k < out.firings.size(); ++k) {
        const int held = out.firings[k].transition;
        if (gm->pure(held) && gm->mutex(held, ti)) {
          excluded = true;
          break;
        }
      }
      if (excluded) {
        ++stats.static_skips;
        emit_static_skip(ti);
        continue;
      }
    }
    const est::Transition& tr = transitions[static_cast<std::size_t>(ti)];

    Firing firing;
    firing.transition = ti;
    std::span<const rt::Value> args;  // the when-parameters, if any

    if (tr.when) {
      const int ip = tr.when->ip_index;
      // An ip may be unobservable (inputs synthesized, §5.2) and disabled
      // (outputs unchecked, §2.4.3) at once — the lower-interface-only
      // analysis the paper wants for LAPD (§4.1). Unobservability wins for
      // the input side.
      if (ro.is_unobservable(ip)) {
        // §5.2: the when clause is assumed satisfiable; a fresh interaction
        // with undefined parameters is synthesized.
        firing.synthesized = true;
        args = ro.undefined_params(tr.when->param_types.size());
      } else if (ro.is_disabled(ip)) {
        continue;  // §3.2.1: never offered, never marks the node PG
      } else {
        const std::uint32_t seq = st.cursors.next_seq(trace, ip, tr::Dir::In);
        if (seq == std::numeric_limits<std::uint32_t>::max()) {
          // Input queue exhausted. If the trace can still grow, this
          // transition might become fireable later: the node is PG.
          if (!trace.eof()) out.incomplete = true;
          continue;
        }
        const tr::TraceEvent& ev = trace.event(seq);
        if (ev.interaction != tr.when->interaction_id) continue;

        // §2.4.2 input-wrt-output: the consumed input must precede every
        // pending output at the same ip.
        if (ro.base->check_input_wrt_output &&
            st.cursors.next_seq(trace, ip, tr::Dir::Out) < seq) {
          continue;
        }
        // §2.4.2 IP relative order: the consumed input must be the globally
        // earliest pending input.
        if (ro.base->check_ip_order &&
            st.cursors.global_min_seq(trace, tr::Dir::In, ro) < seq) {
          continue;
        }
        firing.input_event = static_cast<int>(seq);
        args = ev.params;
      }
    }

    bool holds = false;
    try {
      holds = interp.provided_holds(st.machine, tr, args);
    } catch (const RuntimeFault& fault) {
      // A faulting provided clause cannot be satisfied on this path; note
      // the first fault for diagnostics and treat the transition as not
      // offered.
      if (out.fault.empty()) out.fault = fault.what();
    }
    if (gm != nullptr && !gm->pure(ti)) {
      // An impure guard evaluation (any outcome, including a fault) may
      // have moved the module state; earlier held-guard facts no longer
      // describe it.
      held_from = out.firings.size();
    }
    if (!holds) continue;

    // Grow once, to room for every candidate: a recycled list then fits
    // any later node in this state.
    if (out.firings.size() == out.firings.capacity()) {
      out.firings.reserve(applicable.size());
    }
    out.firings.push_back(std::move(firing));
  }

  // Keep only the highest-priority group.
  if (!out.firings.empty()) {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (const Firing& f : out.firings) {
      best = std::min(best, effective_priority(
                                transitions[static_cast<std::size_t>(
                                    f.transition)]));
    }
    const std::size_t shadowed =
        static_cast<std::size_t>(std::erase_if(out.firings, [&](const Firing&
                                                                    f) {
          return effective_priority(
                     transitions[static_cast<std::size_t>(f.transition)]) !=
                 best;
        }));
    if (shadowed != 0 && obs.sink != nullptr) {
      obs::Event e;
      e.kind = obs::EventKind::PruneShadow;
      e.parent = obs.node;
      e.worker = obs.worker;
      e.depth = obs.depth;
      e.count = shadowed;
      obs.sink->emit(e);
    }
  }

  stats.fanout_sum += out.firings.size();
  ++stats.fanout_samples;
  return out;
}

}  // namespace tango::core
