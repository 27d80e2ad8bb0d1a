// The *generate* operation of the paper's §2.2: list every transition
// fireable from the current search state, honouring when-clauses against
// the trace's pending inputs, provided clauses, Estelle priorities, and the
// relative-order checking options of §2.4.2.
//
// A generation is *incomplete* (the node is a PG-node, §3.1.1) when a
// when-transition could not be offered only because its input queue has no
// pending event and the trace has not reached eof — new input may make it
// fireable later.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/obs_record.hpp"
#include "core/search_state.hpp"
#include "core/stats.hpp"
#include "runtime/interp.hpp"

namespace tango::core {

/// A candidate transition. It holds no when-parameter values: those are
/// the input event's, looked up by seq when the firing is applied
/// (when_args), since the on-line engine appends events to the trace
/// between generating a firing and applying it.
struct Firing {
  int transition = -1;    // index into spec.body().transitions
  int input_event = -1;   // global seq consumed by the when clause, or -1
  bool synthesized = false;  // unobservable-ip input (partial mode)
};

struct GenResult {
  std::vector<Firing> firings;
  bool incomplete = false;  // PG: more firings may appear with new input
  std::string fault;        // first provided-clause fault, if any (path note)
};

/// The when-parameters `firing` binds, looked up now: its input event's
/// parameters, undefined ones for a synthesized input, none for a
/// spontaneous transition. Valid until the trace grows.
[[nodiscard]] std::span<const rt::Value> when_args(const Firing& firing,
                                                  const tr::Trace& trace,
                                                  const ResolvedOptions& ro,
                                                  const est::Transition& tr);

/// Enumerates fireable transitions in declaration order, then keeps only
/// the highest-priority group (smallest priority value; transitions without
/// a priority clause rank below all prioritized ones). With a sink in
/// `obs`, guard-solver skips emit one `prune.static` event each and the
/// priority filter emits one `prune.shadow` event carrying the number of
/// shadowed candidates dropped.
///
/// `storage` is a spent firing list the caller no longer needs (a search
/// hands over the list of the node it just left): it is cleared and the
/// result is built in its capacity, so a linear run allocates no lists.
[[nodiscard]] GenResult generate(rt::Interp& interp, const tr::Trace& trace,
                                 const ResolvedOptions& ro, SearchState& st,
                                 Stats& stats, const ObsCtx& obs = {},
                                 std::vector<Firing> storage = {});

}  // namespace tango::core
