// Tree-walking interpreter for compiled specifications. Implements the
// *update* operation of the paper's §2.2 (execute a transition) plus
// provided-clause evaluation for *generate*. Outputs produced by `output`
// statements are streamed to an OutputSink; the trace analyzer's sink
// matches them against the trace and vetoes mismatching paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "estelle/spec.hpp"
#include "runtime/machine.hpp"
#include "runtime/trail.hpp"
#include "support/diagnostics.hpp"

namespace tango::rt {

/// Receives interactions produced while executing a transition block.
class OutputSink {
 public:
  virtual ~OutputSink() = default;

  /// Return false to veto the current execution path (the transition is
  /// aborted and fire() returns false). The analyzer uses this to reject
  /// outputs that do not match the trace. `params` lives on the
  /// interpreter's argument stack: it is valid only during this call, so a
  /// sink that keeps the values copies them.
  virtual bool on_output(int ip_index, int interaction_id,
                         std::span<const Value> params, SourceLoc loc) = 0;
};

/// Accepts and ignores every output (useful for warm-up and tests).
class NullSink final : public OutputSink {
 public:
  bool on_output(int, int, std::span<const Value>, SourceLoc) override {
    return true;
  }
};

/// Strict mode faults on any *use* of an undefined value. Partial mode
/// implements the paper's §5 semantics: undefined propagates through
/// expressions, provided clauses that evaluate to undefined are assumed
/// true, and undefined output parameters compare equal to anything.
enum class EvalMode : std::uint8_t { Strict, Partial };

struct InterpLimits {
  /// Statement budget per transition firing; guards against runaway loops
  /// inside transition blocks.
  std::uint64_t max_statements = 1'000'000;
  int max_call_depth = 256;
};

namespace detail {

/// One local of a routine frame: its value, or for a var-parameter the
/// caller's location it aliases.
struct FrameSlot {
  Value v;
  Value* ref = nullptr;
};

/// Storage an Interp reuses from one call to the next, so that firing a
/// transition allocates nothing once the buffers have grown.
struct ExecStorage {
  /// Slot buffers of the live frames: the n-th live frame uses buffer n
  /// (frames nest, so they come and go LIFO). A deque, so taking a new
  /// buffer leaves the live frames' buffers in place.
  std::deque<std::vector<FrameSlot>> frames;
  std::size_t live_frames = 0;
  /// Output arguments: each output statement evaluates its arguments above
  /// the stack's size at entry and pops back to it on every exit.
  std::vector<Value> out_args;
};

}  // namespace detail

/// Holds reusable frame and argument storage, so an Interp is used by one
/// thread at a time; each search worker and analyzer makes its own.
class Interp {
 public:
  explicit Interp(const est::Spec& spec, EvalMode mode = EvalMode::Strict,
                  InterpLimits limits = {});

  /// Executes an initialize clause: runs its block against `m` and enters
  /// its target state. Returns false if an output was vetoed by the sink.
  /// With a non-null `trail`, every mutation of `m` (module-variable root,
  /// heap cell, allocate/release, FSM state) pushes an undo entry first, so
  /// the caller can restore by rewinding instead of deep-copying (§3.2.2).
  bool run_initializer(MachineState& m, const est::Initializer& init,
                       OutputSink& sink, Trail* trail = nullptr);

  /// Fires a transition whose when-parameters are bound to `when_args`
  /// (empty for spontaneous transitions). Returns false if vetoed: the
  /// block stops at the vetoed output, as a status returned through every
  /// enclosing statement rather than a C++ exception (only an output in a
  /// function called from an expression unwinds by throwing). `m` is then
  /// left partially updated, FSM state unchanged, and must be restored by
  /// the caller (deep-copy restore, or Trail::undo_to when a trail was
  /// passed).
  bool fire(MachineState& m, const est::Transition& tr,
            std::span<const Value> when_args, OutputSink& sink,
            Trail* trail = nullptr);

  /// Evaluates a transition's provided clause read-only (writes to module
  /// variables or the heap fault). Missing clause means true; an undefined
  /// result is true in partial mode (paper §5.1) and faults in strict mode.
  bool provided_holds(MachineState& m, const est::Transition& tr,
                      std::span<const Value> when_args);
  bool provided_holds(MachineState& m, const est::Initializer& init);

  [[nodiscard]] const est::Spec& spec() const { return spec_; }
  [[nodiscard]] EvalMode mode() const { return mode_; }

 private:
  const est::Spec& spec_;
  EvalMode mode_;
  InterpLimits limits_;
  detail::ExecStorage storage_;
};

}  // namespace tango::rt
