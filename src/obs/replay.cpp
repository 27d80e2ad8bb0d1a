#include "obs/replay.hpp"

#include <optional>
#include <unordered_map>
#include <utility>

#include "core/executor.hpp"
#include "core/generator.hpp"
#include "core/option_table.hpp"
#include "core/options.hpp"
#include "core/search_state.hpp"
#include "core/stats.hpp"
#include "estelle/spec.hpp"
#include "obs/json.hpp"
#include "obs/stream.hpp"
#include "runtime/interp.hpp"

namespace tango::obs {

std::string ReplayReport::first_issue() const {
  if (issues.empty()) return "";
  return "event " + std::to_string(issues.front().event_index) + ": " +
         issues.front().message;
}

namespace {

std::string hex16(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Reads an integer counter from the verdict's stats object; 0 if absent.
std::uint64_t counter(const JsonValue& stats, const char* key) {
  const JsonValue* v = stats.find(key);
  if (v == nullptr || !v->is_number() || !v->is_integer || v->integer < 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(v->integer);
}

class Replayer {
 public:
  Replayer(const est::Spec& spec, const tr::Trace& trace,
           const std::vector<Event>& events)
      : spec_(spec), trace_(trace), events_(events) {}

  ReplayReport run() {
    if (events_.empty()) {
      issue(0, "empty event stream");
      return std::move(report_);
    }
    if (events_[0].kind != EventKind::Run) {
      issue(0, "stream does not begin with a run header");
      return std::move(report_);
    }
    if (!begin(events_[0])) return std::move(report_);

    for (std::size_t i = 1; i < events_.size(); ++i) {
      const Event& e = events_[i];
      switch (e.kind) {
        case EventKind::Run:
          issue(i, "duplicate run header");
          break;
        case EventKind::Enter:
          replay_enter(e, i);
          break;
        case EventKind::Fire:
          replay_fire(e, i);
          break;
        case EventKind::Backtrack:
          ++backtracks_;
          break;
        case EventKind::PruneVisited: {
          ++prune_visited_;
          auto it = nodes_.find(e.parent);
          if (it != nodes_.end() && it->second.hash_rec != e.state_hash) {
            issue(i, "prune.visited hash " + hex16(e.state_hash) +
                         " does not match its node's recorded hash " +
                         hex16(it->second.hash_rec));
          }
          break;
        }
        case EventKind::PruneStatic:
          ++prune_static_;
          break;
        case EventKind::PruneShadow:
          break;  // shadow counts feed no Stats counter
        case EventKind::CheckpointSave:
          ++saves_;
          break;
        case EventKind::CheckpointRestore:
          ++restores_;
          break;
        case EventKind::Steal:
          ++steals_;
          break;
        case EventKind::Evict:
          evict_sum_ += e.count;
          break;
        case EventKind::Verdict:
          if (saw_verdict_) {
            issue(i, "duplicate verdict event");
          } else {
            saw_verdict_ = true;
            check_verdict(e, i);
          }
          break;
      }
    }

    if (!saw_verdict_) {
      issue(events_.size(), "stream ends without a verdict event");
    }
    return std::move(report_);
  }

 private:
  struct Node {
    core::SearchState state;  // post-apply; post-generate once `generated`
    core::GenResult gen;
    bool generated = false;
    std::uint64_t hash_rec = 0;
    bool all_done_rec = false;
  };

  void issue(std::size_t index, std::string message) {
    report_.issues.push_back({index, std::move(message)});
  }

  bool begin(const Event& header) {
    report_.engine = header.engine;
    relaxed_ = header.engine == "mdfs";
    try {
      const JsonValue flags = parse_json(header.flags.empty() ? std::string("{}")
                                                              : header.flags);
      core::read_options(flags, core::kHeader, options_);
    } catch (const std::exception& ex) {
      issue(0, std::string("bad run-header flags: ") + ex.what());
      return false;
    }
    options_.sink = nullptr;  // never record while replaying
    try {
      ro_.emplace(spec_, options_);
    } catch (const std::exception& ex) {
      issue(0, std::string("options failed to resolve: ") + ex.what());
      return false;
    }
    interp_.emplace(spec_,
                    options_.partial ? rt::EvalMode::Partial
                                     : rt::EvalMode::Strict,
                    options_.interp);
    return true;
  }

  void replay_enter(const Event& e, std::size_t i) {
    if (e.applied) ++enters_applied_;
    if (e.init < 0 ||
        static_cast<std::size_t>(e.init) >= spec_.body().initializers.size()) {
      issue(i, "enter names initializer " + std::to_string(e.init) +
                   " but the spec has " +
                   std::to_string(spec_.body().initializers.size()));
      return;
    }
    core::InitResult init = core::apply_initializer(
        *interp_, trace_, *ro_, static_cast<std::size_t>(e.init), scratch_);
    if (!e.ok) {
      if (init.ok) {
        issue(i, "recorded initializer veto, but initializer " +
                     std::to_string(e.init) + " succeeds on replay");
      }
      return;
    }
    if (!init.ok) {
      issue(i, "recorded ok enter, but initializer " + std::to_string(e.init) +
                   " is vetoed on replay: " + init.note);
      return;
    }
    Node node;
    node.state = std::move(init.state);
    if (e.start_state >= 0) node.state.machine.fsm_state = e.start_state;
    const std::uint64_t h = node.state.hash();
    if (h != e.state_hash) {
      issue(i, "enter state hash mismatch: recorded " + hex16(e.state_hash) +
                   ", replayed " + hex16(h));
      return;
    }
    if (!relaxed_) {
      const bool done = node.state.cursors.all_done(trace_, *ro_);
      if (done != e.all_done) {
        issue(i, std::string("enter all_done mismatch: recorded ") +
                     (e.all_done ? "true" : "false"));
        return;
      }
    }
    node.hash_rec = e.state_hash;
    node.all_done_rec = e.all_done;
    nodes_.emplace(e.id, std::move(node));
    ++report_.nodes_replayed;
  }

  /// Runs generate() on the node's stored state exactly once, in place —
  /// the engines hash fires against the *post-generate* branching state
  /// (impure provided-clauses may mutate it), so replay must too.
  Node* generated_node(std::uint64_t id) {
    auto it = nodes_.find(id);
    if (it == nodes_.end()) return nullptr;
    Node& node = it->second;
    if (!node.generated) {
      node.gen = core::generate(*interp_, trace_, *ro_, node.state, scratch_);
      node.generated = true;
    }
    return &node;
  }

  void replay_fire(const Event& e, std::size_t i) {
    ++fires_total_;
    ++report_.fires_checked;
    Node* parent = generated_node(e.parent);
    if (parent == nullptr) {
      issue(i, "fire references node " + std::to_string(e.parent) +
                   " which was not replayed");
      return;
    }
    const core::Firing* firing = nullptr;
    for (const core::Firing& f : parent->gen.firings) {
      if (f.transition == e.transition && f.input_event == e.input_event) {
        firing = &f;
        break;
      }
    }
    core::Firing fallback;
    if (firing == nullptr) {
      if (!e.ok && relaxed_) return;  // growth-time veto, unreproducible
      if (relaxed_) {
        // A parked node re-generated mid-growth can fire a candidate the
        // final-trace generate() orders away; retry from the raw fields.
        fallback.transition = e.transition;
        fallback.input_event = e.input_event;
        fallback.synthesized = e.synthesized;
        firing = &fallback;
      } else {
        issue(i, "fired transition " + std::to_string(e.transition) +
                     " (input_event " + std::to_string(e.input_event) +
                     ") is not enabled at node " + std::to_string(e.parent));
        return;
      }
    }
    if (firing->synthesized != e.synthesized) {
      issue(i, "fire synthesized flag mismatch");
      return;
    }
    if (!e.ok) {
      if (relaxed_) return;  // veto reflects a trace prefix, skip
      core::SearchState probe = parent->state;
      core::ApplyResult applied = core::apply_firing(
          *interp_, trace_, *ro_, probe, *firing, scratch_);
      if (applied.ok) {
        issue(i, "recorded veto of transition " +
                     std::to_string(e.transition) +
                     ", but it applies cleanly on replay");
      }
      return;
    }
    Node child;
    child.state = parent->state;
    core::ApplyResult applied = core::apply_firing(
        *interp_, trace_, *ro_, child.state, *firing, scratch_);
    if (!applied.ok) {
      issue(i, "recorded ok fire of transition " +
                   std::to_string(e.transition) +
                   " is vetoed on replay: " + applied.note);
      return;
    }
    const std::uint64_t h = child.state.hash();
    if (h != e.state_hash) {
      issue(i, "fire state hash mismatch: recorded " + hex16(e.state_hash) +
                   ", replayed " + hex16(h));
      return;
    }
    if (!relaxed_) {
      const bool done = child.state.cursors.all_done(trace_, *ro_);
      if (done != e.all_done) {
        issue(i, std::string("fire all_done mismatch: recorded ") +
                     (e.all_done ? "true" : "false"));
        return;
      }
    }
    child.hash_rec = e.state_hash;
    child.all_done_rec = e.all_done;
    nodes_.emplace(e.id, std::move(child));
    ++report_.nodes_replayed;
  }

  void check_verdict(const Event& e, std::size_t i) {
    report_.verdict = e.verdict;
    report_.witness = e.parent;

    if (e.verdict == "valid") {
      auto it = nodes_.find(e.parent);
      if (e.parent == 0 || it == nodes_.end()) {
        issue(i, "valid verdict without a replayed witness node");
      } else if (!it->second.all_done_rec) {
        issue(i, "valid verdict's witness was not recorded all_done");
      } else if (!it->second.state.cursors.all_done(trace_, *ro_)) {
        issue(i, "valid verdict's witness does not consume the whole trace "
                 "on replay");
      }
    } else if (e.parent != 0) {
      issue(i, "verdict '" + e.verdict + "' names witness node " +
                   std::to_string(e.parent) + "; only 'valid' may");
    }

    // Schema v2 reason: must be a known token, appear exactly on
    // inconclusive verdicts, and name a budget the run-header flags
    // actually armed — a "deadline" reason in a run with no --deadline is
    // a fabricated stream.
    if (!e.reason.empty()) {
      core::InconclusiveReason r = core::InconclusiveReason::None;
      if (!core::parse_reason(e.reason, r)) {
        issue(i, "unknown verdict reason '" + e.reason + "'");
      } else if (e.verdict != "inconclusive") {
        issue(i, "verdict '" + e.verdict + "' carries reason '" + e.reason +
                     "'; only 'inconclusive' may");
      } else {
        bool armed = false;
        switch (r) {
          case core::InconclusiveReason::Transitions:
            armed = options_.max_transitions != 0;
            break;
          case core::InconclusiveReason::Depth:
            armed = options_.max_depth != 0;
            break;
          case core::InconclusiveReason::Deadline:
            armed = options_.deadline_ms != 0;
            break;
          case core::InconclusiveReason::Memory:
            armed = options_.max_memory != 0;
            break;
          case core::InconclusiveReason::Shutdown:
            // An operator/drain decision, not a budget — no flag arms it.
            armed = true;
            break;
          case core::InconclusiveReason::None:
            break;
        }
        if (!armed) {
          issue(i, "verdict reason '" + e.reason +
                       "' names a budget the run-header flags never armed");
        }
      }
    } else if (e.verdict == "inconclusive") {
      issue(i, "inconclusive verdict without a reason");
    }

    if (e.stats_json.empty()) {
      issue(i, "verdict event carries no stats");
      return;
    }
    JsonValue stats;
    try {
      stats = parse_json(e.stats_json);
    } catch (const std::exception& ex) {
      issue(i, std::string("verdict stats do not parse: ") + ex.what());
      return;
    }

    const std::uint64_t te = counter(stats, "te");
    const std::uint64_t accounted = fires_total_ + enters_applied_;
    if (relaxed_) {
      // Pending-root initializer retries execute bodies without emitting
      // events, so the stream accounts for a lower bound of TE.
      if (te < accounted) {
        issue(i, "te " + std::to_string(te) + " below the " +
                     std::to_string(accounted) +
                     " executions the stream accounts for");
      }
    } else if (te != accounted) {
      issue(i, "te " + std::to_string(te) + " != fires + applied enters (" +
                   std::to_string(accounted) + ")");
    }
    check_counter(i, stats, "sa", saves_);
    check_counter(i, stats, "re", restores_);
    check_counter(i, stats, "pruned_by_hash", prune_visited_);
    check_counter(i, stats, "static_skips", prune_static_);
    check_counter(i, stats, "tasks_stolen", steals_);
    check_counter(i, stats, "evictions", evict_sum_);
  }

  void check_counter(std::size_t i, const JsonValue& stats, const char* key,
                     std::uint64_t streamed) {
    const std::uint64_t recorded = counter(stats, key);
    if (recorded != streamed) {
      issue(i, std::string(key) + " " + std::to_string(recorded) +
                   " != " + std::to_string(streamed) +
                   " accounted for by the stream");
    }
  }

  const est::Spec& spec_;
  const tr::Trace& trace_;
  const std::vector<Event>& events_;
  ReplayReport report_;

  core::Options options_;
  std::optional<core::ResolvedOptions> ro_;
  std::optional<rt::Interp> interp_;
  core::Stats scratch_;
  std::unordered_map<std::uint64_t, Node> nodes_;
  bool relaxed_ = false;

  std::uint64_t fires_total_ = 0;
  std::uint64_t enters_applied_ = 0;
  std::uint64_t saves_ = 0;
  std::uint64_t restores_ = 0;
  std::uint64_t prune_visited_ = 0;
  std::uint64_t prune_static_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t evict_sum_ = 0;
  std::uint64_t backtracks_ = 0;
  bool saw_verdict_ = false;
};

}  // namespace

ReplayReport replay(const est::Spec& spec, const tr::Trace& trace,
                    const std::vector<Event>& events) {
  return Replayer(spec, trace, events).run();
}

ReplayReport replay_stream(const est::Spec& spec, const tr::Trace& trace,
                           const std::string& text) {
  const ReadResult stream = read_events(text);
  if (stream.errors.empty()) return replay(spec, trace, stream.events);
  ReplayReport report;
  for (const ReadError& err : stream.errors) {
    report.issues.push_back({err.line, "schema: " + err.message});
  }
  return report;
}

}  // namespace tango::obs
