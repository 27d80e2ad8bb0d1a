#include "core/parallel_dfs.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/fault.hpp"
#include "core/generator.hpp"
#include "core/governor.hpp"
#include "core/obs_record.hpp"
#include "core/veto_note.hpp"
#include "core/visited.hpp"
#include "support/diagnostics.hpp"

namespace tango::core {

namespace {

/// Every branching node above this depth is published in deterministic
/// mode. Depth-bounded ownership keeps the task set a pure function of
/// the branch tree; below the bound, subtrees are small enough that
/// sequential exploration inside one task is the faster choice anyway.
constexpr int kDeterministicPublishDepth = 12;

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// A path from a search root: the start state, then the transitions fired
/// from it, as ids. Names are resolved once, for the reported solution.
struct PathIds {
  int start_state = -1;
  std::vector<int> transitions;
};

/// A search root, or a continuation: the untaken alternatives of one
/// branching node, materialized so any worker can resume them.
/// `node_depth` is the global stack depth of the node (the publisher's
/// stack size with the node on top), `path` the edges leading into the
/// node.
struct Task {
  SearchState state;
  /// The node's untaken firings; a root has none yet and generates them.
  std::optional<std::vector<Firing>> firings;
  PathIds path;
  int node_depth = 1;
  std::vector<std::uint32_t> lineage;
  /// Event id of the enter/fire that produced `state` — the task's fires
  /// keep pointing at the same parent an inline run would name.
  std::uint64_t origin = 0;
};

/// What exploration produced. Pool outcomes (one per task) merge in
/// lineage order (lexicographic), which in deterministic mode makes the
/// merged result a pure function of the task set; the integer counters
/// are commutative, so relaxed mode loses nothing by reusing the same
/// order. An inline run has exactly one outcome for the whole search.
struct Outcome {
  std::vector<std::uint32_t> lineage;
  Stats stats;
  VetoNote note;
  bool found = false;
  PathIds solution;
  std::uint64_t witness = 0;  // enter/fire event id of the completing state
};

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// One node on the DFS stack, holding only what backtracking can still
/// use: the firing list and the checkpoint live while an alternative is
/// untaken, and are dropped when the last one is picked.
struct NodeFrame {
  std::vector<Firing> firings;  // empty once the last firing is taken
  std::uint64_t origin = 0;     // enter/fire event that made this state
  std::uint32_t mark = kNone;   // checkpoint while a restore may use it
  /// If the node branches: how many branching nodes lie below it on the
  /// stack — the `count` of its checkpoint events (docs/EVENTS.md).
  std::uint32_t branch = kNone;
  std::uint32_t next = 0;       // next firing to pick
  int chosen = -1;              // transition taken to descend; -1 none
};

/// Bytes a firing list holds: the firings and their when-parameters.
std::uint64_t firing_bytes(const std::vector<Firing>& firings) {
  std::uint64_t bytes = firings.size() * sizeof(Firing);
  for (const Firing& f : firings) {
    bytes += f.binding.size() * sizeof(rt::Value);
  }
  return bytes;
}

/// The §2.2 backtracking search: one task loop (explore) under the three
/// schedules of parallel_dfs.hpp. Inline, one Outcome, one VisitedSet and
/// one governor span the whole run.
class SearchEngine {
 public:
  SearchEngine(const est::Spec& spec, const tr::Trace& trace,
               const Options& options, int jobs, bool deterministic)
      : spec_(spec),
        trace_(trace),
        options_(options),
        ro_(resolve_timed(spec, options, phase_static_)),
        jobs_(jobs),
        det_(deterministic),
        inline_(jobs == 1 && !deterministic),
        relaxed_pool_(!deterministic && !inline_),
        publish_watermark_(static_cast<std::size_t>(2 * jobs)),
        governor_(options),
        visited_(options.visited_max),
        sink_(options.sink) {}

  DfsResult run() {
    DfsResult result;
    {
      PhaseTimer search_timer(result.stats.phase_search);
      run_impl(result);
    }
    result.stats.phase_static = phase_static_;
    assert(result.stats.invariant_violations(false).empty());
    return result;
  }

 private:
  void run_impl(DfsResult& result) {
    validate_trace_against_options(spec_, trace_, ro_);
    CpuTimer timer;
    if (sink_ != nullptr) {
      emit_run_header(*sink_, spec_, options_, inline_ ? "dfs" : "par");
    }

    rt::Interp interp = make_interp();
    // The initializers' share (empty lineage: merges first). Inline, it is
    // also every root's outcome.
    Outcome first;
    std::vector<Task> roots;
    std::uint32_t root_seq = 0;
    for (std::size_t ii = 0; !first.found && !out_of_budget_.load() &&
                             ii < spec_.body().initializers.size();
         ++ii) {
      InitResult init =
          apply_initializer(interp, trace_, ro_, ii, first.stats);
      bump_shared_te();
      if (!init.ok) {
        emit_enter(sink_, static_cast<int>(ii), -1, init.executed, false,
                   false, 0);
        first.note.merge(init.note);
        continue;
      }
      bool first_root = true;
      for (int start :
           start_states(spec_, options_, init.state.machine.fsm_state)) {
        Task t;
        t.state = init.state;
        t.state.machine.fsm_state = start;
        const bool done = t.state.cursors.all_done(trace_, ro_);
        t.origin = emit_enter(
            sink_, static_cast<int>(ii), start, first_root && init.executed,
            true, done, sink_ != nullptr ? state_hash(t.state, options_) : 0);
        first_root = false;
        t.path.start_state = start;
        t.lineage = {root_seq++};
        if (done) {
          first.found = true;
          first.solution = std::move(t.path);
          first.witness = t.origin;
        } else if (inline_) {
          explore(std::move(t), -1, interp, false, first);
        } else {
          roots.push_back(std::move(t));
        }
        if (first.found || out_of_budget_.load()) break;
      }
    }
    if (!first.found && !roots.empty()) run_pool(std::move(roots));

    // Merge in lineage order; see Outcome.
    std::sort(outcomes_.begin(), outcomes_.end(),
              [](const Outcome& a, const Outcome& b) {
                return a.lineage < b.lineage;
              });
    result.stats = first.stats;
    VetoNote note = first.note;
    const Outcome* winner = first.found ? &first : nullptr;
    for (const Outcome& o : outcomes_) {
      result.stats += o.stats;
      note.merge(o.note);
      if (o.found && winner == nullptr) winner = &o;
    }
    result.note = note.text();
    const std::uint64_t run_evictions =
        shared_visited_ != nullptr ? shared_visited_->total_evictions()
                                   : visited_.evictions();
    result.stats.evictions += run_evictions;
    emit_evict(-1, run_evictions);
    if (winner != nullptr) {
      result.verdict = Verdict::Valid;
      result.solution = solution_names(winner->solution);
      // A budget may have tripped in a losing task; a Valid verdict
      // carries no reason.
      result.stats.reason = InconclusiveReason::None;
    } else if (out_of_budget_.load() || depth_clipped_.load()) {
      result.verdict = Verdict::Inconclusive;
      // Inline and deterministic runs carry the tripped reason on the
      // merged stats (first in lineage order: a pure function of the task
      // set). Relaxed mode falls back to the first-wins shared trip, which
      // also covers budget trips outside any task (initializer loop).
      InconclusiveReason r = result.stats.reason;
      if (r == InconclusiveReason::None) {
        r = static_cast<InconclusiveReason>(stop_reason_.load());
      }
      if (r == InconclusiveReason::None) r = InconclusiveReason::Depth;
      result.reason = r;
      result.stats.reason = r;
    } else {
      result.verdict = Verdict::Invalid;
      result.stats.reason = InconclusiveReason::None;
    }
    result.stats.cpu_seconds = timer.elapsed();
    if (sink_ != nullptr) {
      emit_verdict(*sink_, winner != nullptr ? winner->witness : 0,
                   to_string(result.verdict), result.stats,
                   to_string(result.reason));
    }
  }

  /// The reported solution: the initialize clause, then transition names.
  std::vector<std::string> solution_names(const PathIds& path) const {
    std::vector<std::string> names;
    names.reserve(path.transitions.size() + 1);
    names.push_back(
        "initialize to " +
        spec_.states[static_cast<std::size_t>(path.start_state)]);
    for (const int id : path.transitions) {
      names.push_back(
          spec_.body().transitions[static_cast<std::size_t>(id)].name);
    }
    return names;
  }

  /// Reports visited-table evictions: the run's table (worker -1) or one
  /// deterministic task's.
  void emit_evict(int worker, std::uint64_t count) {
    if (sink_ == nullptr || count == 0) return;
    obs::Event e;
    e.kind = obs::EventKind::Evict;
    e.worker = worker;
    e.count = count;
    sink_->emit(e);
  }

  struct WorkerDeque {
    std::mutex mu;
    std::deque<Task> dq;
  };

  void run_pool(std::vector<Task> roots) {
    if (relaxed_pool_ && options_.hash_states) {
      shared_visited_ = std::make_unique<ShardedVisitedTable>(
          static_cast<std::size_t>(std::max(16, 4 * jobs_)),
          options_.visited_max);
    }
    deques_.clear();
    for (int i = 0; i < jobs_; ++i) {
      deques_.push_back(std::make_unique<WorkerDeque>());
    }
    pending_.store(static_cast<int>(roots.size()));
    queued_.store(roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      deques_[i % static_cast<std::size_t>(jobs_)]->dq.push_back(
          std::move(roots[i]));
    }

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs_));
    for (int w = 0; w < jobs_; ++w) {
      workers.emplace_back([this, w] { worker_loop(w); });
    }
    for (std::thread& t : workers) t.join();
    if (failure_ != nullptr) std::rethrow_exception(failure_);
  }

  rt::Interp make_interp() const {
    return rt::Interp(spec_,
                      options_.partial ? rt::EvalMode::Partial
                                       : rt::EvalMode::Strict,
                      options_.interp);
  }

  void worker_loop(int wid) {
    rt::Interp interp = make_interp();
    while (true) {
      bool stolen = false;
      std::optional<Task> task = pop_or_steal(wid, stolen);
      if (!task) {
        std::unique_lock<std::mutex> lock(sleep_mu_);
        if (pending_.load() == 0 || stop_.load()) return;
        sleep_cv_.wait(lock, [this] {
          return queued_.load() > 0 || pending_.load() == 0 || stop_.load();
        });
        if (pending_.load() == 0 || stop_.load()) return;
        continue;
      }
      try {
        Outcome out;
        out.lineage = std::move(task->lineage);
        explore(std::move(*task), wid, interp, stolen, out);
        std::lock_guard<std::mutex> lock(outcomes_mu_);
        outcomes_.push_back(std::move(out));
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(outcomes_mu_);
          if (failure_ == nullptr) failure_ = std::current_exception();
        }
        stop_.store(true);
        wake_all();
        return;
      }
      if (pending_.fetch_sub(1) == 1) wake_all();
    }
  }

  std::optional<Task> pop_or_steal(int wid, bool& stolen) {
    {
      WorkerDeque& own = *deques_[static_cast<std::size_t>(wid)];
      std::lock_guard<std::mutex> lock(own.mu);
      if (!own.dq.empty()) {
        Task t = std::move(own.dq.back());  // LIFO: stay depth-first locally
        own.dq.pop_back();
        queued_.fetch_sub(1);
        return t;
      }
    }
    for (int off = 1; off < jobs_; ++off) {
      WorkerDeque& victim =
          *deques_[static_cast<std::size_t>((wid + off) % jobs_)];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.dq.empty()) {
        Task t = std::move(victim.dq.front());  // FIFO: steal big subtrees
        victim.dq.pop_front();
        queued_.fetch_sub(1);
        stolen = true;
        return t;
      }
    }
    return std::nullopt;
  }

  void publish(Task t, int wid) {
    pending_.fetch_add(1);
    {
      WorkerDeque& own = *deques_[static_cast<std::size_t>(wid)];
      std::lock_guard<std::mutex> lock(own.mu);
      own.dq.push_back(std::move(t));
    }
    queued_.fetch_add(1);
    wake_one();
  }

  // Publishers/finishers lock-unlock sleep_mu_ before notifying so a
  // worker between its predicate check and its block cannot miss the wake.
  void wake_one() {
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    sleep_cv_.notify_one();
  }
  void wake_all() {
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    sleep_cv_.notify_all();
  }

  bool should_publish(int node_depth) const {
    if (inline_) return false;
    if (det_) return node_depth < kDeterministicPublishDepth;
    return queued_.load(std::memory_order_relaxed) < publish_watermark_;
  }

  /// Global transition budget in relaxed pool mode; every apply (worker
  /// or initializer) adds one, mirroring the inline run's TE counter.
  void bump_shared_te() {
    if (!relaxed_pool_ || options_.max_transitions == 0) return;
    if (te_shared_.fetch_add(1) + 1 >= options_.max_transitions) {
      trip_relaxed(InconclusiveReason::Transitions);
    }
  }

  /// Relaxed-mode budget trip: records the winning reason (first trip
  /// wins) and cancels the pool cooperatively — the shared flag every
  /// worker observes through stop_.
  void trip_relaxed(InconclusiveReason r) {
    std::uint32_t expected = 0;
    stop_reason_.compare_exchange_strong(expected,
                                         static_cast<std::uint32_t>(r));
    out_of_budget_.store(true);
    stop_.store(true);
    wake_all();
  }

  /// Cooperative budget check at the generate/backtrack boundary, with
  /// `live` the bytes the task holds now (docs/ROBUSTNESS.md). Inline and
  /// deterministic runs check the task alone — the whole run inline, one
  /// task in deterministic mode, so the clip point depends only on the
  /// task and siblings run to completion. Relaxed pool mode pools the
  /// memory charge across workers and turns any trip into a shared
  /// cancellation. Returns true when the search must stop.
  bool budget_exceeded(Stats& stats, ResourceGovernor& gov,
                       std::uint64_t live, std::uint64_t& mem_reported) {
    if (!relaxed_pool_) {
      const InconclusiveReason r = exceeded_budget(options_, gov, stats, live);
      if (r == InconclusiveReason::None) return false;
      out_of_budget_.store(true);
      stats.reason = r;
      return true;
    }
    if (!gov.armed()) return false;
    report_memory(live, mem_reported);
    // Never negative: each task's share is its own live bytes.
    const auto pooled = static_cast<std::uint64_t>(
        mem_shared_.load(std::memory_order_relaxed));
    InconclusiveReason r = InconclusiveReason::None;
    if (options_.max_memory != 0 && pooled >= options_.max_memory) {
      r = InconclusiveReason::Memory;
    } else if (gov.deadline_expired()) {
      r = InconclusiveReason::Deadline;
    }
    if (r == InconclusiveReason::None) return false;
    stats.reason = r;
    trip_relaxed(r);
    return true;
  }

  /// Relaxed pool: moves this task's share of the pooled memory charge
  /// from `mem_reported` to `live`. Live bytes fall as the task
  /// backtracks, so the delta is signed.
  void report_memory(std::uint64_t live, std::uint64_t& mem_reported) {
    mem_shared_.fetch_add(static_cast<std::int64_t>(live) -
                              static_cast<std::int64_t>(mem_reported),
                          std::memory_order_relaxed);
    mem_reported = live;
  }

  /// Depth-first exploration of one task's subtree into `out`.
  void explore(Task t, int wid, rt::Interp& interp, bool stolen,
               Outcome& out) {
    Stats& stats = out.stats;
    if (stolen) {
      stats.tasks_stolen = 1;
      emit_at_node(sink_, obs::EventKind::Steal, t.origin, t.node_depth - 1,
                   wid);
    }

    SearchState cur = std::move(t.state);
    // Pool tasks copy the governor: every task races the same absolute
    // deadline but samples its own clock stride.
    ResourceGovernor task_gov = governor_;
    ResourceGovernor& gov = inline_ ? governor_ : task_gov;
    std::uint64_t mem_reported = 0;  // relaxed: bytes pushed to mem_shared_
    // One checkpointer per task: the trail rewinds exactly to the task's
    // start state, never across tasks or roots.
    std::unique_ptr<Checkpointer> ckpt =
        make_checkpointer(options_.checkpoint, stats);
    std::unique_ptr<VisitedSet> task_visited;
    if (det_ && options_.hash_states) {
      // Private per-task table: weaker pruning than a shared one, but a
      // pure function of the task, which determinism requires. The
      // --visited-max bound applies per task.
      task_visited = std::make_unique<VisitedSet>(options_.visited_max);
    }
    VisitedSet* visited = inline_ ? &visited_ : task_visited.get();

    std::vector<NodeFrame> stack;
    std::uint64_t frame_bytes = 0;  // the stack and the firings it holds
    std::uint32_t branching = 0;    // frames on the stack that branch
    std::uint32_t pub_seq = 0;

    // The path into the top node: the task's own, then each frame's
    // chosen transition.
    const auto current_path = [&] {
      PathIds path = t.path;
      for (const NodeFrame& f : stack) {
        if (f.chosen >= 0) path.transitions.push_back(f.chosen);
      }
      return path;
    };

    // The firing list of the last node whose last alternative was taken:
    // the storage the next generate builds in, so a linear run allocates
    // no lists.
    std::vector<Firing> spare;

    // Pushes the node `cur` is in — generating its firings unless the task
    // carries them — and saves a checkpoint when it branches.
    const auto push_node = [&](std::uint64_t origin, int depth,
                               std::optional<std::vector<Firing>> firings) {
      NodeFrame frame;
      frame.origin = origin;
      if (firings) {
        frame.firings = std::move(*firings);
      } else {
        GenResult gen = generate(interp, trace_, ro_, cur, stats,
                                 ObsCtx{sink_, origin, wid, depth},
                                 std::move(spare));
        out.note.offer_fault(gen.fault);
        frame.firings = std::move(gen.firings);
      }
      if (frame.firings.size() > 1) {
        // Save only when the node branches.
        frame.mark = static_cast<std::uint32_t>(ckpt->save(cur));
        frame.branch = branching++;
        ++stats.saves;
        emit_at_node(sink_, obs::EventKind::CheckpointSave, origin, depth,
                     wid, frame.branch);
      }
      frame_bytes += sizeof(NodeFrame) + firing_bytes(frame.firings);
      stack.push_back(std::move(frame));
    };
    push_node(t.origin, t.node_depth - 1, std::move(t.firings));

    while (!stack.empty()) {
      if (stop_.load(std::memory_order_relaxed)) break;  // relaxed pool only
      NodeFrame& frame = stack.back();
      if (frame.next >= frame.firings.size()) {
        // Its mark, if any, went with its last firing.
        assert(frame.mark == kNone);
        if (frame.branch != kNone) --branching;
        emit_at_node(sink_, obs::EventKind::Backtrack, frame.origin,
                     t.node_depth + static_cast<int>(stack.size()) - 2, wid);
        frame_bytes -= sizeof(NodeFrame);
        stack.pop_back();
        continue;
      }
      if (budget_exceeded(stats, gov, ckpt->live_bytes() + frame_bytes,
                          mem_reported)) {
        break;
      }

      const int node_depth = t.node_depth + static_cast<int>(stack.size()) - 1;
      const std::size_t pick = frame.next++;
      if (pick > 0) {
        ckpt->restore(frame.mark, cur);  // backtrack to the branching state
        ++stats.restores;
        emit_at_node(sink_, obs::EventKind::CheckpointRestore, frame.origin,
                     node_depth - 1, wid, frame.branch);
        frame.chosen = -1;
      }

      // cur is the pristine node state here; if untaken siblings remain
      // and the pool wants work, hand them off as one continuation.
      if (frame.next < frame.firings.size() && should_publish(node_depth)) {
        Task cont;
        cont.state = ckpt->snapshot(cur);
        cont.firings.emplace(
            std::make_move_iterator(frame.firings.begin() + frame.next),
            std::make_move_iterator(frame.firings.end()));
        cont.path = current_path();
        cont.node_depth = node_depth;
        cont.origin = frame.origin;
        cont.lineage = out.lineage;
        // The lineage component must order continuations by DFS position.
        // In deterministic mode a task publishes at most once per depth,
        // along its leftmost descent chain; a DEEPER continuation lies
        // inside the shallower node's first subtree and therefore comes
        // EARLIER in tree order, so the component decreases with depth.
        // Relaxed mode makes no ordering promise; publication order is
        // fine there (the merge only needs distinct keys).
        cont.lineage.push_back(
            det_ ? static_cast<std::uint32_t>(kDeterministicPublishDepth -
                                              node_depth)
                 : pub_seq++);
        frame_bytes -= firing_bytes(*cont.firings);
        frame.firings.resize(frame.next);  // this task owns only `pick`
        ++stats.tasks_published;
        publish(std::move(cont), wid);
      }

      // Taking the last alternative ends the node's use for its firings
      // and its checkpoint: nothing will restore to it again. Its mark is
      // the newest live one, since the frame is on top of the stack. The
      // spent list becomes the spare that the child's generate reuses.
      const bool last = frame.next == frame.firings.size();
      if (last) {
        frame_bytes -= firing_bytes(frame.firings);
        spare = std::move(frame.firings);
        frame.firings = {};
        if (frame.mark != kNone) {
          ckpt->forget(frame.mark);
          frame.mark = kNone;
        }
      }
      const Firing& firing = last ? spare[pick] : frame.firings[pick];
      ApplyResult applied = apply_firing(interp, trace_, ro_, cur, firing,
                                         stats, ckpt.get(), &out.note);
      bump_shared_te();
      const bool done = applied.ok && cur.cursors.all_done(trace_, ro_);
      // One hash per fired node, shared by the fire event and the visited
      // insert.
      std::uint64_t cur_hash = 0;
      if (applied.ok && (sink_ != nullptr || options_.hash_states)) {
        cur_hash = state_hash(cur, options_);
      }
      std::uint64_t fire_event = 0;
      if (sink_ != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::Fire;
        e.id = sink_->next_id();
        e.parent = frame.origin;
        e.worker = wid;
        e.depth = node_depth;
        e.transition = firing.transition;
        e.input_event = firing.input_event;
        e.synthesized = firing.synthesized;
        e.ok = applied.ok;
        if (applied.ok) {
          e.all_done = done;
          e.state_hash = cur_hash;
        }
        sink_->emit(e);
        fire_event = e.id;
      }
      if (!applied.ok) {
        // cur is now dirty; the next sibling (or an ancestor's) restore
        // repairs it before anything else executes.
        continue;
      }

      frame.chosen = firing.transition;
      stats.max_depth = std::max(stats.max_depth, node_depth);

      if (done) {
        out.found = true;
        out.solution = current_path();
        out.witness = fire_event;
        if (relaxed_pool_) {
          stop_.store(true);  // first conclusion cancels the pool
          wake_all();
        }
        break;
      }

      if (options_.hash_states) {
        // §4.2's proposed hash table of visited states: a revisited state
        // has an identical subtree, already explored or in progress.
        const bool fresh = visited != nullptr
                               ? visited->insert(cur_hash)
                               : shared_visited_->insert(cur_hash);
        if (!fresh) {
          ++stats.pruned_by_hash;
          if (sink_ != nullptr) {
            obs::Event e;
            e.kind = obs::EventKind::PruneVisited;
            e.parent = fire_event;
            e.worker = wid;
            e.depth = node_depth;
            e.state_hash = cur_hash;
            sink_->emit(e);
          }
          frame.chosen = -1;
          continue;
        }
      }

      if (options_.max_depth != 0 && node_depth >= options_.max_depth) {
        depth_clipped_.store(true);
        frame.chosen = -1;
        continue;
      }

      push_node(fire_event, node_depth, std::nullopt);
    }

    if (relaxed_pool_) report_memory(0, mem_reported);  // the task is done
    if (task_visited != nullptr) {
      stats.evictions += task_visited->evictions();
      emit_evict(wid, task_visited->evictions());
    }
  }

  const est::Spec& spec_;
  const tr::Trace& trace_;
  const Options& options_;
  PhaseMetrics phase_static_;  // declared before ro_: resolve_timed fills it
  ResolvedOptions ro_;
  const int jobs_;
  const bool det_;
  const bool inline_;
  const bool relaxed_pool_;
  const std::size_t publish_watermark_;
  ResourceGovernor governor_;  // inline: the run's; pool: copied per task
  VisitedSet visited_;         // inline runs' §4.2 table
  obs::Sink* sink_ = nullptr;

  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::atomic<int> pending_{0};          // tasks queued or running
  std::atomic<std::size_t> queued_{0};   // queued only; hunger heuristic
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> out_of_budget_{false};
  std::atomic<bool> depth_clipped_{false};
  std::atomic<std::uint64_t> te_shared_{0};
  std::atomic<std::int64_t> mem_shared_{0};  // relaxed: live bytes pooled
  /// First budget reason to trip in relaxed mode (InconclusiveReason).
  std::atomic<std::uint32_t> stop_reason_{0};
  std::unique_ptr<ShardedVisitedTable> shared_visited_;
  std::mutex outcomes_mu_;
  std::vector<Outcome> outcomes_;
  std::exception_ptr failure_;
};

}  // namespace

namespace detail {

DfsResult search(const est::Spec& spec, const tr::Trace& trace,
                 const Options& options, int jobs, bool deterministic) {
  return SearchEngine(spec, trace, options, jobs, deterministic).run();
}

std::uint64_t frame_charge_bytes() { return sizeof(NodeFrame); }

}  // namespace detail

DfsResult analyze_parallel(const est::Spec& spec, const tr::Trace& trace,
                           const Options& options) {
  return detail::search(spec, trace, options, resolve_jobs(options.jobs),
                        options.deterministic);
}

std::vector<BatchItemResult> analyze_batch(const est::Spec& spec,
                                           const std::vector<tr::Trace>& traces,
                                           const Options& options,
                                           const std::vector<obs::Sink*>& sinks) {
  std::vector<BatchItemResult> results(traces.size());
  const int max_attempts = 1 + std::max(0, options.item_retries);
  const auto analyze_one = [&](std::size_t i) {
    Options item_options = options;
    item_options.sink = i < sinks.size() ? sinks[i] : nullptr;
    // Thread-local fault-injection identity: a spec like
    // "deadline@item:1" fires only inside item 1's analysis.
    FaultScope scope("item:" + std::to_string(i));
    BatchItemResult& out = results[i];
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      out.attempts = attempt;
      out.error.clear();
      try {
        if (fault_probe(FaultSite::TraceRead)) {
          throw RuntimeFault({}, "fault injection: trace read failed");
        }
        out.result = analyze(spec, traces[i], item_options);
        return;
      } catch (const RuntimeFault& e) {
        out.error = e.what();  // transient: retry while the budget allows
      } catch (const std::exception& e) {
        out.error = e.what();  // permanent (bad trace, bad options): no retry
        return;
      } catch (...) {
        out.error = "unknown exception";
        return;
      }
    }
  };
  // Items go out in input order; the calling thread is one of the workers.
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < traces.size();) {
      analyze_one(i);
    }
  };
  const int jobs = std::min<int>(resolve_jobs(options.jobs),
                                 static_cast<int>(traces.size()));
  std::vector<std::thread> workers;
  for (int w = 1; w < jobs; ++w) workers.emplace_back(drain);
  drain();
  for (std::thread& t : workers) t.join();
  return results;
}

}  // namespace tango::core
