// The traced run's own walk of the search. Generate, fire, checkpoint and
// hash run inside the engines, so the benchmark walks the same search
// itself, through the public per-layer functions, with a span around each
// call.
// It follows core::analyze's DFS exactly for the options the workloads
// use (order presets, hash_states, trail checkpoints) and nothing else:
// no initial-state search, no depth or budget clips, no event sink. The
// caller checks the walk's TE/GE/RE/SA and pruned-by-hash against the
// engine's on the same input.
#pragma once

#include <string>

#include "core/options.hpp"
#include "core/stats.hpp"
#include "core/verdict.hpp"
#include "estelle/spec.hpp"
#include "spans.hpp"

namespace perfbench {

struct WalkResult {
  tango::core::Verdict verdict = tango::core::Verdict::Invalid;
  tango::core::Stats stats;
  std::uint64_t fires_ok = 0;      // apply_firing/apply_initializer that held
  std::uint64_t hash_calls = 0;    // core::state_hash
  std::uint64_t visited_inserts = 0;
  std::size_t events = 0;          // parsed trace events
  double wall_s = 0.0;             // parse + resolve + search, traced
};

/// Throws std::invalid_argument for options the walk does not model.
[[nodiscard]] WalkResult walk(const tango::est::Spec& spec,
                              const std::string& trace_text,
                              const tango::core::Options& options,
                              Tracer& tracer);

/// Times `calls` checkpoint save/restore pairs and state hashes on the
/// workload's post-initializer state, under spans named probe.*. Used
/// for the per-call cost of a layer the search itself never calls.
void probe_idle_layers(const tango::est::Spec& spec,
                       const std::string& trace_text,
                       const tango::core::Options& options, int calls,
                       Tracer& tracer);

}  // namespace perfbench
