#include "walk.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/dfs.hpp"
#include "core/executor.hpp"
#include "core/generator.hpp"
#include "core/search_state.hpp"
#include "core/visited.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

namespace core = tango::core;
namespace tr = tango::tr;
namespace rt = tango::rt;

namespace {

struct Frame {
  core::GenResult gen;
  std::size_t next = 0;
  std::optional<std::size_t> mark;  // present iff the node branches
};

void require_modelled(const core::Options& o) {
  if (o.initial_state_search || o.partial || !o.unobservable_ips.empty() ||
      !o.disabled_ips.empty() || o.max_depth != 0 ||
      o.max_transitions != 0 || o.deadline_ms != 0 || o.max_memory != 0 ||
      o.visited_max != 0 || o.sink != nullptr) {
    throw std::invalid_argument(
        "perfbench walk: options outside the benchmark's workloads");
  }
}

class Walker {
 public:
  Walker(const tango::est::Spec& spec, const tr::Trace& trace,
         const core::ResolvedOptions& ro, const core::Options& options,
         Tracer& tracer, WalkResult& out)
      : spec_(spec),
        trace_(trace),
        ro_(ro),
        options_(options),
        interp_(spec, rt::EvalMode::Strict, options.interp),
        tracer_(tracer),
        out_(out),
        stats_(out.stats) {}

  void run() {
    core::validate_trace_against_options(spec_, trace_, ro_);
    const auto& inits = spec_.body().initializers;
    for (std::size_t ii = 0; ii < inits.size(); ++ii) {
      core::InitResult init = [&] {
        Span s(tracer_, "core.apply_initializer");
        return core::apply_initializer(interp_, trace_, ro_, ii, stats_);
      }();
      if (!init.ok) continue;
      ++out_.fires_ok;
      if (search_from(std::move(init.state))) {
        out_.verdict = core::Verdict::Valid;
        return;
      }
    }
    out_.verdict = core::Verdict::Invalid;
  }

 private:
  bool search_from(core::SearchState cur) {
    if (cur.cursors.all_done(trace_, ro_)) return true;
    std::unique_ptr<core::Checkpointer> ckpt =
        core::make_checkpointer(options_.checkpoint, stats_);
    std::vector<Frame> stack;
    push_node(stack, cur, *ckpt);

    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next >= frame.gen.firings.size()) {
        if (frame.mark) {
          Span s(tracer_, "checkpoint.forget");
          ckpt->forget(*frame.mark);
        }
        stack.pop_back();
        continue;
      }
      const std::size_t pick = frame.next++;
      if (pick > 0) {
        Span s(tracer_, "checkpoint.restore");
        ckpt->restore(*frame.mark, cur);
        ++stats_.restores;
      }
      const core::Firing& firing = frame.gen.firings[pick];
      const core::ApplyResult applied = [&] {
        Span s(tracer_, "core.apply_firing");
        return core::apply_firing(interp_, trace_, ro_, cur, firing, stats_,
                                  ckpt.get());
      }();
      if (!applied.ok) continue;
      ++out_.fires_ok;
      const bool done = cur.cursors.all_done(trace_, ro_);
      std::uint64_t h = 0;
      if (options_.hash_states) {
        Span s(tracer_, "hash.state_hash");
        h = core::state_hash(cur, options_);
        ++out_.hash_calls;
      }
      stats_.max_depth =
          std::max(stats_.max_depth, static_cast<int>(stack.size()));
      if (done) return true;
      if (options_.hash_states) {
        bool fresh = false;
        {
          Span s(tracer_, "visited.insert");
          fresh = visited_.insert(h);
          ++out_.visited_inserts;
        }
        if (!fresh) {
          ++stats_.pruned_by_hash;
          continue;
        }
      }
      push_node(stack, cur, *ckpt);
    }
    return false;
  }

  void push_node(std::vector<Frame>& stack, core::SearchState& cur,
                 core::Checkpointer& ckpt) {
    Frame frame;
    {
      Span s(tracer_, "core.generate");
      frame.gen = core::generate(interp_, trace_, ro_, cur, stats_);
    }
    if (frame.gen.firings.size() > 1) {
      Span s(tracer_, "checkpoint.save");
      frame.mark = ckpt.save(cur);
      ++stats_.saves;
    }
    stack.push_back(std::move(frame));
  }

  const tango::est::Spec& spec_;
  const tr::Trace& trace_;
  const core::ResolvedOptions& ro_;
  const core::Options& options_;
  rt::Interp interp_;
  core::VisitedSet visited_;
  Tracer& tracer_;
  WalkResult& out_;
  core::Stats& stats_;
};

}  // namespace

WalkResult walk(const tango::est::Spec& spec, const std::string& trace_text,
                const core::Options& options, Tracer& tracer) {
  require_modelled(options);
  WalkResult out;
  const std::int64_t t0 = now_ns();
  {
    Span request(tracer, "analysis");
    const tr::Trace trace = [&] {
      Span s(tracer, "trace.parse_trace");
      return tr::parse_trace(spec, trace_text);
    }();
    out.events = trace.events().size();
    const std::unique_ptr<core::ResolvedOptions> ro = [&] {
      Span s(tracer, "static.resolve_options");
      return std::make_unique<core::ResolvedOptions>(spec, options);
    }();
    Span search(tracer, "core.search");
    Walker(spec, trace, *ro, options, tracer, out).run();
  }
  out.wall_s = (now_ns() - t0) / 1e9;
  return out;
}

void probe_idle_layers(const tango::est::Spec& spec,
                       const std::string& trace_text,
                       const core::Options& options, int calls,
                       Tracer& tracer) {
  const tr::Trace trace = tr::parse_trace(spec, trace_text);
  const core::ResolvedOptions ro(spec, options);
  rt::Interp interp(spec, rt::EvalMode::Strict, options.interp);
  core::Stats stats;
  core::InitResult init = core::apply_initializer(interp, trace, ro, 0, stats);
  core::SearchState& st = init.state;
  std::unique_ptr<core::Checkpointer> ckpt =
      core::make_checkpointer(options.checkpoint, stats);
  Span probe(tracer, "probe");
  for (int i = 0; i < calls; ++i) {
    std::size_t mark = 0;
    {
      Span s(tracer, "probe.checkpoint.save");
      mark = ckpt->save(st);
    }
    {
      Span s(tracer, "probe.checkpoint.restore");
      ckpt->restore(mark, st);
    }
    ckpt->forget(mark);
    {
      Span s(tracer, "probe.hash.state_hash");
      // Out of line (machine.cpp), so the call is not optimised away.
      (void)core::state_hash(st, options);
    }
  }
}

}  // namespace perfbench
