// Analyzer run-time options (paper §2.4). The relative-order presets match
// the four modes measured in the paper's Figures 3 and 4:
//   NR   - no relative order checking
//   IO   - inputs-wrt-outputs AND outputs-wrt-inputs (the paper's "I/O and
//          O/I relative order checking only")
//   IP   - IP relative order checking only
//   FULL - all three options
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <memory>
#include <span>

#include "analysis/guard_solver.hpp"
#include "estelle/spec.hpp"
#include "runtime/interp.hpp"

namespace tango::obs {
class Sink;
}

namespace tango::core {

/// How the DFS engines implement the §2.2 save/restore primitives.
/// `Copy` deep-copies the composite state at every branching node (the
/// paper's cost model, §3.2.2) and is kept as a differential oracle;
/// `Trail` makes save an O(1) mark on an undo log and restore a rewind.
/// Both produce identical verdicts and identical TE/GE/RE/SA counters.
/// MDFS per-node states are materialized snapshots in either mode, because
/// §3.1.1 re-generation needs whole states to park on PG nodes.
enum class CheckpointMode : std::uint8_t { Copy, Trail };

/// Which SearchState hash implementation the engines use for §4.2 pruning
/// and obs `state_hash` emission. `Incremental` combines trail-maintained
/// per-component hashes in O(dirty) (runtime/machine.hpp); `Full` is the
/// original full recursive walk, kept as the differential oracle (debug
/// builds assert the two agree on every hash the engines take).
enum class HashImpl : std::uint8_t { Incremental, Full };

struct Options {
  // --- relative order checking (§2.4.2) ---
  /// The next input consumed must precede every pending output at the same
  /// ip in the trace. "Should be used under most circumstances."
  bool check_input_wrt_output = false;
  /// The next output generated must precede every pending input at the same
  /// ip. Not valid if the IUT has input queues at that ip.
  bool check_output_wrt_input = false;
  /// Inputs consumed in global trace-input order; outputs generated in
  /// global trace-output order (outputs of one transition block to
  /// different ips may be permuted — the §2.4.2 special case).
  bool check_ip_order = false;

  // --- other run-time options ---
  /// §2.4.1: if analysis from the declared initial state fails, backtrack
  /// to just after the initialize transition and try every other FSM state.
  bool initial_state_search = false;
  /// §2.4.3: outputs at these ips are never checked (always valid), and
  /// when-clauses on them never fire (prevents the degenerate MDFS case of
  /// §3.2.1). Canonical (lower-case) ip names.
  std::vector<std::string> disabled_ips;
  /// §5: partial-trace mode — these ips deliver no inputs in the trace;
  /// when-clauses on them fire with undefined parameters, and undefined
  /// values compare equal to anything.
  std::vector<std::string> unobservable_ips;
  /// Partial mode also applies undefined-tolerant expression semantics.
  bool partial = false;

  // --- search engineering ---
  /// §4.2 "keep information about which states were reached ... in a hash
  /// table, to prevent the analysis of the same state twice" (evaluated as
  /// an ablation). Hashes are 64-bit; collisions are astronomically rare
  /// but would prune a live path, so the option is off by default.
  bool hash_states = false;
  /// MDFS dynamic node reordering (§3.1.3). On by default, as in Tango.
  bool reorder_pg_nodes = true;
  /// Paper §3.1.2 footnote 2: when a PGAV node exists at quiescence, drop
  /// every non-PGAV node — "piecewise validity". Saves memory but can
  /// report invalid on a valid trace when the only viable continuation
  /// went through a pruned node; off by default, exactly as the footnote
  /// cautions.
  bool prune_on_pgav = false;
  /// Save/restore implementation for the DFS engines (see CheckpointMode).
  CheckpointMode checkpoint = CheckpointMode::Trail;
  /// State-hash implementation (see HashImpl). Tests set `Full` to run
  /// the O(state) walk as a differential oracle; both produce identical
  /// hash values, so verdicts, pruning and event streams match.
  HashImpl hash_impl = HashImpl::Incremental;
  /// 0 = unlimited. When exceeded the verdict is Inconclusive.
  std::uint64_t max_transitions = 0;
  /// 0 = unlimited search depth. Needed for partial traces (§5.4).
  int max_depth = 0;
  /// Wall-clock deadline in milliseconds (`--deadline`, 0 = none), checked
  /// cooperatively at generate/backtrack boundaries; expiry yields
  /// Inconclusive with reason "deadline". In batch mode the deadline is
  /// per item: each trace's clock starts when its analysis starts.
  std::uint64_t deadline_ms = 0;
  /// Byte budget (`--max-memory`, 0 = none) over what the search holds for
  /// backtracking at each check (governor.hpp, docs/ROBUSTNESS.md), not
  /// process RSS. Exceeding it yields Inconclusive with reason "memory".
  /// A pure function of the search, so it trips at the same point on every
  /// run, --deterministic included.
  std::uint64_t max_memory = 0;
  /// Worker threads for analyze_parallel (`--jobs`), 0 = one per hardware
  /// thread. 1 without `deterministic` runs the search inline on the
  /// calling thread with no publication — exactly what analyze() runs;
  /// analyze() ignores this field and `deterministic`.
  int jobs = 1;
  /// Reproducible parallel mode (`--deterministic`): branch ownership is a
  /// fixed function of the search tree (depth-bounded publication), hash
  /// pruning and budgets are per-task, no early cancellation, and results
  /// merge in task-lineage order — verdict and counters are then
  /// run-to-run identical for any jobs value, 1 included. The default
  /// relaxed mode with more than one job shares budget/pruning/
  /// cancellation globally; its verdict is stable (up to budget races)
  /// but its counters depend on the schedule.
  bool deterministic = false;
  /// Bound on retained visited-state hashes (`--visited-max`, 0 =
  /// unlimited). Overflow evicts a uniformly random resident entry,
  /// counted in stats.evictions; eviction weakens §4.2 pruning but never
  /// soundness. Only meaningful with hash_states.
  std::uint64_t visited_max = 0;
  /// Consume the guard-solver facts (analysis/guard_solver.hpp) during
  /// generate(): skip transitions that provably cannot contribute behavior
  /// (structural duplicates, priority-shadowed, always-false guards) and
  /// early-exit candidates proven mutually exclusive with a guard that
  /// already held. Facts are proofs, so verdicts and witnesses are
  /// unchanged; `--no-static-prune` turns it off for differential runs.
  /// Automatically disabled in partial mode and with unobservable ips,
  /// where undefined-tolerant semantics break the proofs.
  bool static_prune = true;
  /// Additionally consume the whole-spec invariant facts
  /// (analysis/invariants.hpp) during generate(): skip candidates whose
  /// guard is refuted by the current control state's invariant, and cut
  /// subtrees whose remaining trace demands an output no live code can
  /// emit. Same proof discipline as static_prune (which gates it: the
  /// facts ride on the same GuardMatrix); `--no-invariant-prune` isolates
  /// the pairwise solver for differential and ablation runs. Also
  /// disabled under initial-state search, whose non-initializer entry
  /// states invalidate the fixpoint's seeding assumption.
  bool invariant_prune = true;
  /// Pre-built guard-solver/invariant facts for this specification. When
  /// set, ResolvedOptions adopts this matrix instead of re-running the
  /// solver and the invariant fixpoint — the analysis server pre-analyzes
  /// every spec once at startup and shares the matrix read-only across
  /// sessions. The caller owns the contract that the matrix was built for
  /// the SAME spec and with fact layers matching invariant_prune /
  /// initial_state_search (`srv::SpecRegistry` keeps one matrix per
  /// layer). Ignored whenever the solver would not have run at all
  /// (static_prune off, partial mode, unobservable ips).
  std::shared_ptr<const analysis::GuardMatrix> prebuilt_guard_matrix;
  /// Structured search-event sink (src/obs/). Null — the default — records
  /// nothing; engines guard every emission behind one branch. Non-owning:
  /// the sink must outlive the analysis. Every engine emits the same typed
  /// stream (docs/EVENTS.md), replayable by obs::replay.
  obs::Sink* sink = nullptr;

  rt::InterpLimits interp;

  // --- presets (the paper's four modes) ---
  [[nodiscard]] static Options none() { return Options{}; }
  [[nodiscard]] static Options io() {
    Options o;
    o.check_input_wrt_output = true;
    o.check_output_wrt_input = true;
    return o;
  }
  [[nodiscard]] static Options ip() {
    Options o;
    o.check_ip_order = true;
    return o;
  }
  [[nodiscard]] static Options full() {
    Options o;
    o.check_input_wrt_output = true;
    o.check_output_wrt_input = true;
    o.check_ip_order = true;
    return o;
  }

  [[nodiscard]] std::string order_mode_name() const;
};

/// Per-analysis view of the options with ip names resolved to indexes.
/// Throws UsageError when an option names an unknown ip.
struct ResolvedOptions {
  ResolvedOptions(const est::Spec& spec, const Options& opts);
  /// `base` aliases `opts`, which must outlive this view — a temporary
  /// would dangle (caught by the sanitizer build), so reject it.
  ResolvedOptions(const est::Spec& spec, Options&& opts) = delete;

  const Options* base;
  std::vector<char> disabled;      // by ip index
  std::vector<char> unobservable;  // by ip index
  /// Guard-solver facts for generate()-time pruning; null when
  /// static_prune is off, the proofs are invalid for this run (partial
  /// mode / unobservable ips) or the solver found nothing. Shared so the
  /// parallel engines' per-worker views alias one matrix.
  std::shared_ptr<const analysis::GuardMatrix> guard_matrix;

  [[nodiscard]] bool is_disabled(int ip) const {
    return disabled[static_cast<std::size_t>(ip)] != 0;
  }
  [[nodiscard]] bool is_unobservable(int ip) const {
    return unobservable[static_cast<std::size_t>(ip)] != 0;
  }
  /// `n` undefined values, the when-parameters of a synthesized input
  /// (§5.2); `n` is at most the longest when-parameter list of the spec.
  [[nodiscard]] std::span<const rt::Value> undefined_params(
      std::size_t n) const {
    return std::span<const rt::Value>(undefined_params_).first(n);
  }

 private:
  /// One shared run of undefined values, as long as the spec's longest
  /// when-parameter list.
  std::vector<rt::Value> undefined_params_;

  /// Runs the guard solver (plus the invariant fixpoint when its facts are
  /// admissible) and installs the matrix; the constructor skips this when
  /// Options carries a prebuilt matrix.
  void build_guard_matrix(const est::Spec& spec, const Options& opts);
};

}  // namespace tango::core
