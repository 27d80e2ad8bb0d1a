#include "core/generator.hpp"

#include <algorithm>
#include <limits>

namespace tango::core {

namespace {

/// Effective priority: Estelle priority clauses rank smaller-is-higher;
/// transitions without one rank below all prioritized transitions.
std::int64_t effective_priority(const est::Transition& tr) {
  return tr.priority.value_or(std::numeric_limits<std::int64_t>::max());
}

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

  for (int ti : applicable) {
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
