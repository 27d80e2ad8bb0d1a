#include "estelle/spec.hpp"

#include "estelle/parser.hpp"
#include "estelle/sema.hpp"

namespace tango::est {

int Spec::state_ordinal(std::string_view name) const {
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (states[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int Spec::ip_index(std::string_view name) const {
  for (std::size_t i = 0; i < ips.size(); ++i) {
    if (ips[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int Spec::input_id(int ip, std::string_view name) const {
  const auto& table = ips.at(static_cast<std::size_t>(ip)).inputs;
  auto it = table.find(name);
  return it == table.end() ? -1 : it->second;
}

int Spec::output_id(int ip, std::string_view name) const {
  const auto& table = ips.at(static_cast<std::size_t>(ip)).outputs;
  auto it = table.find(name);
  return it == table.end() ? -1 : it->second;
}

Spec compile_spec(std::string_view source, DiagnosticSink& sink) {
  Spec spec;
  spec.ast = parse(source);
  analyze(spec, sink);
  return spec;
}

Spec compile_spec(std::string_view source) {
  DiagnosticSink sink;
  return compile_spec(source, sink);
}

}  // namespace tango::est
