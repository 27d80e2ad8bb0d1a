#include "core/options.hpp"

#include <algorithm>

namespace tango::core {

std::string Options::order_mode_name() const {
  if (check_input_wrt_output && check_output_wrt_input && check_ip_order) {
    return "FULL";
  }
  if (check_input_wrt_output && check_output_wrt_input) return "IO";
  if (check_ip_order) return "IP";
  if (!check_input_wrt_output && !check_output_wrt_input) return "NR";
  return check_input_wrt_output ? "I/O only" : "O/I only";
}

ResolvedOptions::ResolvedOptions(const est::Spec& spec, const Options& opts)
    : base(&opts),
      disabled(spec.ips.size(), 0),
      unobservable(spec.ips.size(), 0) {
  for (const std::string& name : opts.disabled_ips) {
    const int ip = spec.ip_index(name);
    if (ip < 0) {
      throw UsageError("disable-ip option names unknown ip '" + name + "'");
    }
    disabled[static_cast<std::size_t>(ip)] = 1;
  }
  for (const std::string& name : opts.unobservable_ips) {
    const int ip = spec.ip_index(name);
    if (ip < 0) {
      throw UsageError("unobservable-ip option names unknown ip '" + name +
                       "'");
    }
    unobservable[static_cast<std::size_t>(ip)] = 1;
  }
  std::size_t longest = 0;
  for (const est::Transition& tr : spec.body().transitions) {
    if (tr.when) longest = std::max(longest, tr.when->param_types.size());
  }
  undefined_params_.resize(longest);
}

}  // namespace tango::core
