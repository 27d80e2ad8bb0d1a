#include "core/dfs.hpp"

#include "core/parallel_dfs.hpp"
#include "support/diagnostics.hpp"
#include "trace/trace_io.hpp"

namespace tango::core {

void validate_event_against_options(const est::Spec& spec,
                                    const tr::TraceEvent& e,
                                    const ResolvedOptions& ro) {
  // Outputs recorded at a disabled ip are simply never checked (§2.4.3:
  // "not checked, but always considered valid"); inputs there contradict
  // the option's promise that no input ever arrives (§3.2.1).
  if (e.dir != tr::Dir::In) return;
  if (ro.is_disabled(e.ip)) {
    throw CompileError(e.loc,
                       "trace contains inputs at disabled ip '" +
                           spec.ips[static_cast<std::size_t>(e.ip)].name +
                           "'; disabling an ip asserts no input arrives "
                           "there");
  }
  if (ro.is_unobservable(e.ip)) {
    throw CompileError(e.loc,
                       "trace contains inputs at unobservable ip '" +
                           spec.ips[static_cast<std::size_t>(e.ip)].name +
                           "'");
  }
}

void validate_trace_against_options(const est::Spec& spec,
                                    const tr::Trace& trace,
                                    const ResolvedOptions& ro) {
  // Only an offending ip's first input can be the trace's first offence.
  const tr::TraceEvent* first = nullptr;
  for (int ip = 0; ip < trace.ip_count(); ++ip) {
    if (!ro.is_disabled(ip) && !ro.is_unobservable(ip)) continue;
    const std::vector<std::uint32_t>& inputs = trace.list(ip, tr::Dir::In);
    if (!inputs.empty() && (first == nullptr || inputs[0] < first->seq)) {
      first = &trace.event(inputs[0]);
    }
  }
  if (first != nullptr) validate_event_against_options(spec, *first, ro);
}

DfsResult analyze(const est::Spec& spec, const tr::Trace& trace,
                  const Options& options) {
  return detail::search(spec, trace, options, /*jobs=*/1,
                        /*deterministic=*/false);
}

DfsResult analyze_text(const est::Spec& spec, std::string_view trace_text,
                       const Options& options) {
  PhaseMetrics parse_phase;
  tr::Trace trace = [&] {
    PhaseTimer timer(parse_phase);
    return tr::parse_trace(spec, trace_text);
  }();
  DfsResult result = analyze(spec, trace, options);
  result.stats.phase_parse += parse_phase;
  return result;
}

}  // namespace tango::core
