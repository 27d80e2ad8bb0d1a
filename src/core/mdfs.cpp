#include "core/mdfs.hpp"

#include <set>
#include <utility>

#include "core/executor.hpp"
#include "core/obs_record.hpp"

namespace tango::core {

struct OnlineAnalyzer::MNode {
  SearchState state;
  GenResult gen;
  std::size_t next = 0;
  /// Event id of the enter/fire that produced `state`, and the node's
  /// search-tree depth — kept on the node because PG parking detaches it
  /// from any stack position.
  std::uint64_t origin = 0;
  int depth = 0;
  /// Trace extent when `gen` was computed: a node that sat on the stack
  /// while new events (or the eof marker) arrived has a stale firing list.
  std::size_t gen_events = 0;
  bool gen_eof = false;
  /// (transition index, consumed event seq or -1) pairs already explored;
  /// re-generation after new input must not repeat them (§3.1.1).
  std::set<std::pair<int, int>> explored;
  /// What held_bytes() counts for this node while it owns its state.
  std::uint64_t charge = 0;

  [[nodiscard]] bool stale(const tr::Trace& trace) const {
    return gen_events != trace.events().size() || gen_eof != trace.eof();
  }
};

void OnlineAnalyzer::compute_gen(MNode& node) {
  // The node's previous list, if any, is the storage of the new one.
  node.gen = generate(interp_, trace_, ro_, node.state, stats_,
                      ObsCtx{sink_, node.origin, -1, node.depth},
                      std::move(node.gen.firings));
  node.gen_events = trace_.events().size();
  node.gen_eof = trace_.eof();
}

OnlineAnalyzer::OnlineAnalyzer(const est::Spec& spec, tr::TraceSource& source,
                               OnlineConfig config)
    : spec_(spec),
      source_(source),
      config_(std::move(config)),
      ro_(resolve_timed(spec, config_.options, phase_static_)),
      interp_(spec,
              config_.options.partial ? rt::EvalMode::Partial
                                      : rt::EvalMode::Strict,
              config_.options.interp),
      trace_(static_cast<int>(spec.ips.size())),
      governor_(config_.options),
      ckpt_(make_checkpointer(config_.options.checkpoint, stats_)) {
  sink_ = config_.options.sink;
  stats_.phase_static += phase_static_;
  if (sink_ != nullptr) emit_run_header(*sink_, spec_, config_.options, "mdfs");
}

void OnlineAnalyzer::conclude(OnlineStatus status, std::uint64_t witness,
                              InconclusiveReason reason) {
  concluded_ = true;
  final_status_ = status;
  stats_.reason = reason;
  if (sink_ != nullptr && !verdict_emitted_) {
    verdict_emitted_ = true;
    emit_verdict(*sink_, witness, to_string(status), stats_,
                 to_string(reason));
  }
}

void OnlineAnalyzer::abort(InconclusiveReason reason) {
  if (concluded_) return;
  conclude(OnlineStatus::Inconclusive, 0, reason);
}

void OnlineAnalyzer::finalize_stream() {
  if (sink_ == nullptr || verdict_emitted_) return;
  verdict_emitted_ = true;
  emit_verdict(*sink_, 0, to_string(status()), stats_,
               to_string(stats_.reason));
}

OnlineAnalyzer::~OnlineAnalyzer() = default;

void OnlineAnalyzer::push(std::unique_ptr<MNode> node) {
  stack_.push_back(Slot{node->origin, node->depth, std::move(node)});
}

void OnlineAnalyzer::hold(MNode& node) {
  node.charge = sizeof(MNode) - sizeof(SearchState) +
                Checkpointer::copy_cost_bytes(node.state);
  node_bytes_ += node.charge;
}

void OnlineAnalyzer::drop(std::unique_ptr<MNode> node) {
  node_bytes_ -= node->charge;
}

std::uint64_t OnlineAnalyzer::held_bytes() const {
  return stack_.size() * slot_charge_bytes() + node_bytes_;
}

std::uint64_t OnlineAnalyzer::slot_charge_bytes() { return sizeof(Slot); }

bool OnlineAnalyzer::poll_source() {
  const bool had_eof = trace_.eof();
  const bool got = source_.poll(trace_);
  steps_since_poll_ = 0;
  if (!got) return false;
  // Validate only the newly arrived suffix.
  for (; validated_events_ < trace_.events().size(); ++validated_events_) {
    const tr::TraceEvent& e = trace_.events()[validated_events_];
    if (ro_.is_disabled(e.ip) ||
        (e.dir == tr::Dir::In && ro_.is_unobservable(e.ip))) {
      // Reuse the batch validator for a consistent message.
      tr::Trace one(trace_.ip_count());
      one.append(e);
      validate_trace_against_options(spec_, one, ro_);
    }
  }
  // Retry initializers that were blocked on unrecorded outputs.
  if (seeded_ && !pending_roots_.empty()) {
    std::vector<std::size_t> still_pending;
    std::vector<std::unique_ptr<MNode>> roots;
    for (std::size_t ii : pending_roots_) add_roots(ii, still_pending, roots);
    pending_roots_ = std::move(still_pending);
    for (auto& node : roots) push(std::move(node));
  }
  // New data (or the eof marker) re-enables parked PG nodes.
  if (config_.options.reorder_pg_nodes || trace_.eof() != had_eof) {
    reactivate_pg(/*all=*/true);
  }
  return true;
}

void OnlineAnalyzer::reactivate_pg(bool all) {
  if (pg_.empty()) return;
  if (all) {
    // Oldest nodes are pushed first so the NEWEST (deepest partial
    // solution) ends on top of the stack — the §3.1.3 reordering: PG nodes
    // are searched immediately, the rest of the tree is put on hold.
    while (!pg_.empty()) {
      regenerate(std::move(pg_.front()));
      pg_.pop_front();
    }
  } else {
    // Basic MDFS (§3.1.1): service only the oldest PG node.
    regenerate(std::move(pg_.front()));
    pg_.pop_front();
  }
}

void OnlineAnalyzer::regenerate(std::unique_ptr<MNode> node) {
  // A parked PGAV node becomes a full solution the moment eof is marked.
  if (trace_.eof() && node->state.cursors.all_done(trace_, ro_)) {
    conclude(OnlineStatus::Valid, node->origin);
    drop(std::move(node));
    return;
  }
  compute_gen(*node);
  std::erase_if(node->gen.firings, [&](const Firing& f) {
    return node->explored.count({f.transition, f.input_event}) != 0;
  });
  node->next = 0;
  push(std::move(node));
}

void OnlineAnalyzer::seed_roots() {
  seeded_ = true;
  std::vector<std::unique_ptr<MNode>> roots;
  for (std::size_t ii = 0; ii < spec_.body().initializers.size(); ++ii) {
    add_roots(ii, pending_roots_, roots);
  }
  // Roots are pushed in reverse so the first initializer is explored first.
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    push(std::move(*it));
  }
}

void OnlineAnalyzer::add_roots(std::size_t ii,
                               std::vector<std::size_t>& pending,
                               std::vector<std::unique_ptr<MNode>>& roots) {
  InitResult init = apply_initializer(interp_, trace_, ro_, ii, stats_);
  if (!init.ok) {
    if (init.retry_later) pending.push_back(ii);
    else emit_enter(sink_, static_cast<int>(ii), -1, init.executed, false,
                    false, 0);
    return;
  }
  bool first_root = true;
  for (int start : start_states(spec_, config_.options,
                                init.state.machine.fsm_state)) {
    auto node = std::make_unique<MNode>();
    node->state = ckpt_->snapshot(init.state);
    node->state.machine.fsm_state = start;
    node->origin = emit_enter(
        sink_, static_cast<int>(ii), start, first_root && init.executed, true,
        node->state.cursors.all_done(trace_, ro_),
        sink_ != nullptr ? state_hash(node->state, config_.options) : 0);
    first_root = false;
    compute_gen(*node);
    hold(*node);
    ++stats_.saves;
    emit_at_node(sink_, obs::EventKind::CheckpointSave, node->origin, 0);
    roots.push_back(std::move(node));
  }
}

void OnlineAnalyzer::prune_non_pgav() {
  // §3.1.2 footnote 2: treat the fragments analyzed so far as piecewise
  // valid — keep only PGAV nodes. "It is possible that Tango will give an
  // invalid result on a valid trace", hence opt-in.
  if (!config_.options.prune_on_pgav || !any_pgav()) return;
  std::erase_if(pg_, [&](std::unique_ptr<MNode>& node) {
    if (node->state.cursors.all_done(trace_, ro_)) return false;
    drop(std::move(node));
    return true;
  });
}

bool OnlineAnalyzer::any_pgav() const {
  for (const auto& node : pg_) {
    if (node->state.cursors.all_done(trace_, ro_)) return true;
  }
  for (const Slot& slot : stack_) {
    if (slot.node != nullptr && slot.node->gen.incomplete &&
        slot.node->state.cursors.all_done(trace_, ro_)) {
      return true;
    }
  }
  return false;
}

void OnlineAnalyzer::retire(std::unique_ptr<MNode> node) {
  const bool all_done = node->state.cursors.all_done(trace_, ro_);
  if (trace_.eof()) {
    if (all_done) {
      // eof arrived while this all-verified node sat on the stack.
      conclude(OnlineStatus::Valid, node->origin);
    } else if (node->gen.incomplete && node->stale(trace_)) {
      // The eof marker arrived while this partially generated node sat on
      // the stack: its firing list misses whatever the late events enable.
      // Dropping it here would lose valid paths — re-generate against the
      // full trace instead.
      regenerate(std::move(node));
      return;
    }
  } else if (node->gen.incomplete || all_done) {
    // Park for re-generation (§3.1.1). An all-verified node parks even
    // with nothing left to wait on: it is PGAV until eof makes it valid.
    pg_.push_back(std::move(node));
    return;
  }
  drop(std::move(node));
}

bool OnlineAnalyzer::do_step() {
  if (stack_.empty()) return false;
  Slot& top = stack_.back();

  if (top.node == nullptr || top.node->next >= top.node->gen.firings.size()) {
    std::unique_ptr<MNode> finished = std::move(top.node);
    emit_at_node(sink_, obs::EventKind::Backtrack, top.origin, top.depth);
    stack_.pop_back();
    if (finished != nullptr) retire(std::move(finished));
    return true;
  }

  MNode& node = *top.node;
  const Firing& firing = node.gen.firings[node.next++];  // lives with `node`
  // The last firing of a node that is not partially generated and has not
  // consumed the whole trace leaves the node nothing to do but backtrack:
  // no rule parks it, re-generates it or concludes `valid` on it (events
  // only append, so it never becomes all-done). It fires on its own state
  // under a mark that undoes a failed firing and, on success, becomes the
  // child. Every other node keeps its state, since §3.1.1 may still use
  // it, and copies it into the child.
  const bool hand_over = node.next == node.gen.firings.size() &&
                         !node.gen.incomplete &&
                         !node.state.cursors.all_done(trace_, ro_);
  std::unique_ptr<MNode> child;
  std::size_t mark = 0;
  if (hand_over) {
    mark = ckpt_->save(node.state);
  } else {
    child = std::make_unique<MNode>();
    child->state = ckpt_->snapshot(node.state);
    node.explored.insert({firing.transition, firing.input_event});
  }
  SearchState& state = hand_over ? node.state : child->state;
  // SA/RE count one save and one restore per fired node either way, as
  // §3.2.2 counts them; checkpoint_bytes counts the copies really made.
  ++stats_.saves;
  ++stats_.restores;
  emit_at_node(sink_, obs::EventKind::CheckpointSave, node.origin, node.depth);
  emit_at_node(sink_, obs::EventKind::CheckpointRestore, node.origin,
               node.depth);

  ApplyResult applied =
      apply_firing(interp_, trace_, ro_, state, firing, stats_,
                   hand_over ? ckpt_.get() : nullptr);
  if (hand_over) {
    if (!applied.ok) ckpt_->restore(mark, state);
    ckpt_->forget(mark);
  }
  const bool child_done = applied.ok && state.cursors.all_done(trace_, ro_);
  std::uint64_t fire_event = 0;
  if (sink_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::Fire;
    e.id = sink_->next_id();
    e.parent = node.origin;
    e.depth = node.depth + 1;
    e.transition = firing.transition;
    e.input_event = firing.input_event;
    e.synthesized = firing.synthesized;
    e.ok = applied.ok;
    e.retry = applied.retry_later;
    if (applied.ok) {
      e.all_done = child_done;
      e.state_hash = state_hash(state, config_.options);
    }
    sink_->emit(e);
    fire_event = e.id;
  }
  if (!applied.ok) {
    if (applied.retry_later) {
      // The firing produced an output the trace has not recorded YET.
      // Forget that we tried it and keep the node partially generated so
      // re-generation offers it again once new events arrive.
      node.explored.erase({firing.transition, firing.input_event});
      node.gen.incomplete = true;
    }
    return true;
  }

  if (hand_over) {
    // The slot is a tombstone from here on. The node's spent firing list
    // becomes the storage of its list as the child.
    node_bytes_ -= node.charge;
    node.next = 0;
    node.explored.clear();
    child = std::move(top.node);
  }
  child->origin = fire_event;
  child->depth = top.depth + 1;

  stats_.max_depth = std::max(stats_.max_depth,
                              static_cast<int>(stack_.size()));

  if (child_done && trace_.eof()) {
    conclude(OnlineStatus::Valid, fire_event);
    return true;
  }

  if (config_.options.max_depth != 0 &&
      static_cast<int>(stack_.size()) >= config_.options.max_depth) {
    return true;  // depth-clipped child is abandoned
  }

  compute_gen(*child);
  hold(*child);
  push(std::move(child));
  return true;
}

OnlineStatus OnlineAnalyzer::step_round(std::uint64_t steps) {
  if (concluded_) return final_status_;
  PhaseTimer search_timer(stats_.phase_search);
  // Process CPU time, read once on entry and once on exit of the round.
  struct CpuScope {
    double& total;
    CpuTimer timer;
    ~CpuScope() { total += timer.elapsed(); }
  } cpu{stats_.cpu_seconds, {}};
  if (!seeded_) {
    poll_source();
    seed_roots();
  }

  for (std::uint64_t i = 0; i < steps; ++i) {
    if (concluded_) return final_status_;
    const InconclusiveReason r =
        exceeded_budget(config_.options, governor_, stats_, held_bytes());
    if (r != InconclusiveReason::None) {
      conclude(OnlineStatus::Inconclusive, 0, r);
      return final_status_;
    }
    if (stack_.empty()) {
      prune_non_pgav();
      if (!poll_source()) break;  // quiescent and no new data
      if (stack_.empty() && !pg_.empty()) {
        reactivate_pg(config_.options.reorder_pg_nodes);
      }
      if (stack_.empty()) break;
      continue;
    }
    if (++steps_since_poll_ >= config_.poll_every) poll_source();
    do_step();
  }

  if (!concluded_ && stack_.empty() && pg_.empty() && pending_roots_.empty()) {
    // Tree exhausted with nothing parked: conclusively invalid (§3.1.2).
    // (reactivate_pg can conclude Valid while draining pg_, leaving every
    // container empty — concluded_ must win over this emptiness test.)
    conclude(OnlineStatus::Invalid, 0);
    return final_status_;
  }
  return status();
}

OnlineStatus OnlineAnalyzer::status() const {
  if (concluded_) return final_status_;
  if (!seeded_) return OnlineStatus::Searching;
  if (stack_.empty() && pg_.empty() && pending_roots_.empty()) {
    return OnlineStatus::Invalid;
  }
  if (any_pgav()) return OnlineStatus::ValidSoFar;
  if (stack_.empty()) return OnlineStatus::LikelyInvalid;
  return OnlineStatus::Searching;
}

bool OnlineAnalyzer::conclusive() const {
  return concluded_ ||
         (seeded_ && stack_.empty() && pg_.empty() && pending_roots_.empty());
}

std::size_t OnlineAnalyzer::pg_count() const { return pg_.size(); }

OnlineStatus OnlineAnalyzer::run(std::uint64_t steps_per_round,
                                 int idle_rounds) {
  int idle = 0;
  std::uint64_t last_te = stats_.transitions_executed;
  std::size_t last_events = trace_.events().size();
  for (;;) {
    OnlineStatus s = step_round(steps_per_round);
    if (conclusive()) return s;
    const bool progressed = stats_.transitions_executed != last_te ||
                            trace_.events().size() != last_events;
    last_te = stats_.transitions_executed;
    last_events = trace_.events().size();
    if (progressed) {
      idle = 0;
    } else if (++idle >= idle_rounds) {
      return s;
    }
  }
}

}  // namespace tango::core
