#include "sim/simulator.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <random>
#include <span>

#include "support/text.hpp"

namespace tango::sim {

namespace {

/// Records everything the module outputs into the trace.
class RecordingSink final : public rt::OutputSink {
 public:
  explicit RecordingSink(tr::Trace& trace) : trace_(trace) {}

  bool on_output(int ip, int interaction_id,
                 std::span<const rt::Value> params, SourceLoc) override {
    tr::TraceEvent e;
    e.dir = tr::Dir::Out;
    e.ip = ip;
    e.interaction = interaction_id;
    e.params.assign(params.begin(), params.end());
    trace_.append(std::move(e));
    return true;
  }

 private:
  tr::Trace& trace_;
};

struct QueuedInput {
  int interaction = -1;
  std::vector<rt::Value> params;
};

}  // namespace

Feed make_feed(const est::Spec& spec, std::uint64_t at_step,
               std::string_view ip, std::string_view interaction,
               std::vector<rt::Value> params) {
  Feed f;
  f.at_step = at_step;
  f.ip = spec.ip_index(to_lower(ip));
  if (f.ip < 0) {
    throw CompileError({}, "simulator feed: unknown ip '" + std::string(ip) +
                               "'");
  }
  f.interaction = spec.input_id(f.ip, to_lower(interaction));
  if (f.interaction < 0) {
    throw CompileError({}, "simulator feed: '" + std::string(interaction) +
                               "' is not an input of ip '" + std::string(ip) +
                               "'");
  }
  const est::InteractionInfo& info = spec.interaction(f.interaction);
  if (info.param_types.size() != params.size()) {
    throw CompileError({}, "simulator feed: '" + std::string(interaction) +
                               "' expects " +
                               std::to_string(info.param_types.size()) +
                               " parameter(s)");
  }
  f.params = std::move(params);
  return f;
}

SimResult simulate(const est::Spec& spec, std::vector<Feed> feeds,
                   const SimOptions& options) {
  std::stable_sort(feeds.begin(), feeds.end(),
                   [](const Feed& a, const Feed& b) {
                     return a.at_step < b.at_step;
                   });

  SimResult result{tr::Trace(static_cast<int>(spec.ips.size()))};
  rt::Interp interp(spec, rt::EvalMode::Strict);
  rt::MachineState machine = rt::make_initial_machine(spec);
  RecordingSink sink(result.trace);
  std::mt19937 rng(options.seed);

  const est::Initializer& init =
      spec.body().initializers.at(options.initializer);
  if (!interp.run_initializer(machine, init, sink)) {
    result.note = "initializer aborted";
    return result;
  }

  std::vector<std::deque<QueuedInput>> queues(spec.ips.size());
  std::size_t next_feed = 0;

  auto deliver_due = [&](std::uint64_t step) {
    for (; next_feed < feeds.size() && feeds[next_feed].at_step <= step;
         ++next_feed) {
      const Feed& f = feeds[next_feed];
      queues[static_cast<std::size_t>(f.ip)].push_back(
          QueuedInput{f.interaction, f.params});
      if (options.recording == InputRecording::AtArrival) {
        tr::TraceEvent e;
        e.dir = tr::Dir::In;
        e.ip = f.ip;
        e.interaction = f.interaction;
        e.params = f.params;
        result.trace.append(std::move(e));
      }
    }
  };

  const auto& transitions = spec.body().transitions;
  for (;;) {
    if (result.steps >= options.max_steps) {
      result.note = "step limit reached";
      break;
    }
    deliver_due(result.steps);

    // Enumerate fireable transitions against the real input queues.
    std::vector<std::size_t> fireable;
    std::int64_t best_priority = std::numeric_limits<std::int64_t>::max();
    for (std::size_t ti = 0; ti < transitions.size(); ++ti) {
      const est::Transition& tr = transitions[ti];
      if (!std::binary_search(tr.from_ordinals.begin(),
                              tr.from_ordinals.end(), machine.fsm_state)) {
        continue;
      }
      const std::vector<rt::Value>* binding = nullptr;
      static const std::vector<rt::Value> kEmpty;
      binding = &kEmpty;
      if (tr.when) {
        const auto& q = queues[static_cast<std::size_t>(tr.when->ip_index)];
        if (q.empty() || q.front().interaction != tr.when->interaction_id) {
          continue;
        }
        binding = &q.front().params;
      }
      if (!interp.provided_holds(machine, tr, *binding)) continue;
      const std::int64_t prio =
          tr.priority.value_or(std::numeric_limits<std::int64_t>::max());
      if (prio < best_priority) {
        best_priority = prio;
        fireable.clear();
      }
      if (prio == best_priority) fireable.push_back(ti);
    }

    if (fireable.empty()) {
      if (next_feed < feeds.size()) {
        ++result.steps;  // idle tick: wait for the next scheduled feed
        continue;
      }
      break;  // quiescent
    }

    const std::size_t pick =
        fireable[std::uniform_int_distribution<std::size_t>(
            0, fireable.size() - 1)(rng)];
    const est::Transition& tr = transitions[pick];

    std::vector<rt::Value> binding;
    if (tr.when) {
      auto& q = queues[static_cast<std::size_t>(tr.when->ip_index)];
      binding = std::move(q.front().params);
      if (options.recording == InputRecording::AtConsumption) {
        tr::TraceEvent e;
        e.dir = tr::Dir::In;
        e.ip = tr.when->ip_index;
        e.interaction = tr.when->interaction_id;
        e.params = binding;
        result.trace.append(std::move(e));
      }
      q.pop_front();
    }

    if (!interp.fire(machine, tr, binding, sink)) {
      result.note = "transition aborted";
      break;
    }
    ++result.steps;
  }

  result.final_state = machine.fsm_state;
  result.completed =
      next_feed >= feeds.size() &&
      std::all_of(queues.begin(), queues.end(),
                  [](const auto& q) { return q.empty(); }) &&
      result.note.empty();
  result.trace.mark_eof();
  return result;
}

}  // namespace tango::sim
