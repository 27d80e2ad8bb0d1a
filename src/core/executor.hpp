// The *update* operation of §2.2: apply one firing to a search state.
// Inputs advance the ip's input cursor; outputs produced by the transition
// block are matched against the trace through a TraceMatcher sink, which
// enforces the §2.4.2 output-side order checks (including the
// same-transition permutation special case) and the §2.4.3 ip disabling.
#pragma once

#include <span>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/generator.hpp"
#include "core/search_state.hpp"
#include "core/veto_note.hpp"

namespace tango::core {

/// OutputSink that verifies produced interactions against the trace.
/// With a non-null checkpointer, every output-cursor advance is logged so
/// a trail restore can undo it. With a non-null `note`, a veto offers its
/// reason there, formatted only when the note would keep it.
class TraceMatcher final : public rt::OutputSink {
 public:
  TraceMatcher(const est::Spec& spec, const tr::Trace& trace,
               const ResolvedOptions& ro, SearchState& st, bool partial,
               Checkpointer* ckpt = nullptr, VetoNote* note = nullptr);

  bool on_output(int ip, int interaction_id,
                 std::span<const rt::Value> params, SourceLoc loc) override;

  /// IP-relative-order permutation check over the whole transition block
  /// (§2.4.2 special case). Call once after the block succeeds.
  [[nodiscard]] bool finish();

  /// True when the veto was caused by an exhausted output queue while the
  /// trace can still grow — the firing may succeed after new events arrive
  /// (on-line analysis must keep the node as a PG node, §3.1.1).
  [[nodiscard]] bool retry_later() const { return retry_later_; }

 private:
  /// True if the note would keep a veto of this class: only then is the
  /// sentence formatted.
  [[nodiscard]] bool wants(bool parameter_class) const {
    return note_ != nullptr && note_->wants(parameter_class);
  }

  const est::Spec& spec_;
  const tr::Trace& trace_;
  const ResolvedOptions& ro_;
  SearchState& st_;
  bool partial_;
  Checkpointer* ckpt_;
  /// One past the largest trace seq this block has matched; 0 for none.
  std::uint32_t matched_end_ = 0;
  VetoNote* note_;
  bool retry_later_ = false;
};

struct ApplyResult {
  bool ok = false;
  bool retry_later = false;  // output queue exhausted on a growing trace
};

/// Applies `firing` to `st` (mutating it). On failure `st` is left
/// partially updated; the caller restores it through its checkpointer (or
/// from a saved copy). With a non-null `ckpt`, all machine mutations go
/// through the checkpointer's trail and cursor advances are logged, so a
/// trail restore fully reverts the firing. With a non-null `note`, a
/// failure offers its reason (veto or runtime fault) there.
[[nodiscard]] ApplyResult apply_firing(rt::Interp& interp,
                                       const tr::Trace& trace,
                                       const ResolvedOptions& ro,
                                       SearchState& st, const Firing& firing,
                                       Stats& stats,
                                       Checkpointer* ckpt = nullptr,
                                       VetoNote* note = nullptr);

/// Runs initializer `index` on a fresh state. Returns the resulting state;
/// ok=false when an initializer output mismatched the trace.
struct InitResult {
  bool ok = false;
  bool retry_later = false;  // output queue exhausted on a growing trace
  /// True iff this call counted a transition execution (TE): the provided
  /// clause held, so the initializer body ran (successfully or not). The
  /// replay oracle balances TE against the recorded enter/fire events
  /// through this flag.
  bool executed = false;
  SearchState state;
  VetoNote note;  // why the initializer was not applied, when !ok
};
[[nodiscard]] InitResult apply_initializer(rt::Interp& interp,
                                           const tr::Trace& trace,
                                           const ResolvedOptions& ro,
                                           std::size_t index, Stats& stats);

/// §2.4.1: the FSM states a search starts from after an initializer left
/// the machine in state `initial` — that state first, then, with
/// initial_state_search, every other state in declaration order, the
/// variables left exactly as the initialize block set them.
[[nodiscard]] std::vector<int> start_states(const est::Spec& spec,
                                            const Options& options,
                                            int initial);

}  // namespace tango::core
