#include "core/executor.hpp"

#include <algorithm>
#include <limits>

#include "trace/trace_io.hpp"

namespace tango::core {

TraceMatcher::TraceMatcher(const est::Spec& spec, const tr::Trace& trace,
                           const ResolvedOptions& ro, SearchState& st,
                           bool partial, Checkpointer* ckpt, VetoNote* note)
    : spec_(spec),
      trace_(trace),
      ro_(ro),
      st_(st),
      partial_(partial),
      ckpt_(ckpt),
      note_(note) {}

bool TraceMatcher::on_output(int ip, int interaction_id,
                             std::span<const rt::Value> params,
                             SourceLoc loc) {
  if (ro_.is_disabled(ip)) return true;  // §2.4.3: always considered valid

  const std::uint32_t seq = st_.cursors.next_seq(trace_, ip, tr::Dir::Out);
  if (seq == std::numeric_limits<std::uint32_t>::max()) {
    if (wants(false)) {
      note_->offer("produced an output at ip '" +
                       spec_.ips[static_cast<std::size_t>(ip)].name +
                       "' but the trace has no pending output there",
                   false);
    }
    retry_later_ = !trace_.eof();  // the matching event may still arrive
    return false;
  }
  const tr::TraceEvent& ev = trace_.event(seq);
  if (ev.interaction != interaction_id) {
    if (wants(false)) {
      note_->offer("produced '" + spec_.interaction(interaction_id).name +
                       "' at ip '" +
                       spec_.ips[static_cast<std::size_t>(ip)].name +
                       "' but the trace expects '" +
                       spec_.interaction(ev.interaction).name +
                       "' (trace line " + std::to_string(ev.loc.line) + ")",
                   false);
    }
    return false;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!partial_ && rt::contains_undefined(params[i])) {
      throw RuntimeFault(loc, "output parameter " + std::to_string(i + 1) +
                                  " of '" + spec_.interaction(interaction_id)
                                                .name +
                                  "' is undefined (strict mode)");
    }
    if (!rt::equals(params[i], ev.params[i], partial_)) {
      if (wants(true)) {
        note_->offer("parameter " + std::to_string(i + 1) + " of '" +
                         spec_.interaction(interaction_id).name + "' is " +
                         params[i].to_string() + " but the trace has " +
                         ev.params[i].to_string() + " (trace line " +
                         std::to_string(ev.loc.line) + ")",
                     true);
      }
      return false;
    }
  }

  // §2.4.2 output-wrt-input: the produced output must precede every pending
  // input at the same ip.
  if (ro_.base->check_output_wrt_input &&
      st_.cursors.next_seq(trace_, ip, tr::Dir::In) < seq) {
    if (wants(false)) {
      note_->offer("output ordering: an earlier input at the same ip is "
                   "still pending",
                   false);
    }
    return false;
  }

  if (ckpt_ != nullptr) ckpt_->log_cursor_advance(tr::Dir::Out, ip);
  st_.cursors.advance(tr::Dir::Out, ip);
  matched_end_ = std::max(matched_end_, seq + 1);
  return true;
}

bool TraceMatcher::finish() {
  if (!ro_.base->check_ip_order || matched_end_ == 0) return true;

  // The outputs of this block must occupy the globally-earliest pending
  // output slots as of the start of the transition — in any order among
  // themselves (§2.4.2: outputs of one block to different ips may be
  // permuted in the trace). Each ip's matched outputs are a prefix of its
  // pending list at the start (on_output advances that ip's cursor one
  // event at a time), so the matched set is the union of per-ip prefixes.
  // Such a set is the k globally-earliest pending outputs iff no pending
  // output left unmatched precedes a matched one, and the earliest
  // unmatched output of each ip is exactly its current cursor. Hence:
  // every non-disabled ip's next pending output comes after the largest
  // matched seq.
  for (int ip = 0; ip < trace_.ip_count(); ++ip) {
    if (ro_.is_disabled(ip)) continue;
    if (st_.cursors.next_seq(trace_, ip, tr::Dir::Out) < matched_end_) {
      if (wants(false)) {
        note_->offer("IP relative order: the block's outputs are not the "
                     "globally-earliest pending outputs",
                     false);
      }
      return false;
    }
  }
  return true;
}

ApplyResult apply_firing(rt::Interp& interp, const tr::Trace& trace,
                         const ResolvedOptions& ro, SearchState& st,
                         const Firing& firing, Stats& stats,
                         Checkpointer* ckpt, VetoNote* note) {
  ++stats.transitions_executed;
  const est::Transition& tr =
      interp.spec().body().transitions[static_cast<std::size_t>(
          firing.transition)];

  if (firing.input_event >= 0) {
    const tr::TraceEvent& ev =
        trace.event(static_cast<std::uint32_t>(firing.input_event));
    if (ckpt != nullptr) ckpt->log_cursor_advance(tr::Dir::In, ev.ip);
    st.cursors.advance(tr::Dir::In, ev.ip);
  }

  TraceMatcher matcher(interp.spec(), trace, ro, st, ro.base->partial, ckpt,
                       note);
  try {
    if (!interp.fire(st.machine, tr, firing.binding, matcher,
                     ckpt != nullptr ? ckpt->trail() : nullptr)) {
      return {false, matcher.retry_later()};
    }
  } catch (const RuntimeFault& fault) {
    if (note != nullptr) note->offer_fault(fault.what());
    return {false, false};
  }
  if (!matcher.finish()) return {false, false};
  return {true, false};
}

InitResult apply_initializer(rt::Interp& interp, const tr::Trace& trace,
                             const ResolvedOptions& ro, std::size_t index,
                             Stats& stats) {
  InitResult out;
  out.state.machine = rt::make_initial_machine(interp.spec());
  out.state.cursors = CursorSet(trace.ip_count());
  const est::Initializer& init = interp.spec().body().initializers[index];

  try {
    if (!interp.provided_holds(out.state.machine, init)) {
      out.note.offer("initialize provided clause is false", false);
      return out;
    }
    ++stats.transitions_executed;
    out.executed = true;
    TraceMatcher matcher(interp.spec(), trace, ro, out.state,
                         ro.base->partial, nullptr, &out.note);
    if (!interp.run_initializer(out.state.machine, init, matcher)) {
      out.retry_later = matcher.retry_later();
      return out;
    }
    if (!matcher.finish()) return out;
  } catch (const RuntimeFault& fault) {
    out.note.offer_fault(fault.what());
    return out;
  }
  out.ok = true;
  return out;
}

std::vector<int> start_states(const est::Spec& spec, const Options& options,
                              int initial) {
  std::vector<int> states{initial};
  if (options.initial_state_search) {
    for (int s = 0; s < static_cast<int>(spec.states.size()); ++s) {
      if (s != initial) states.push_back(s);
    }
  }
  return states;
}

}  // namespace tango::core
