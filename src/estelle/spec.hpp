// Compiled specification: the annotated AST plus the resolved symbol tables
// (states, interaction points, interactions, module variables) that the
// runtime, the trace tooling and the analyzer operate on.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "estelle/ast.hpp"
#include "support/diagnostics.hpp"

namespace tango::est {

/// One interaction kind (channel + message name), identified globally.
struct InteractionInfo {
  std::string name;       // canonical
  int channel_index = -1;
  std::vector<std::string> param_names;  // canonical
  std::vector<const Type*> param_types;
};

/// One interaction point of the module.
struct IpInfo {
  std::string name;  // canonical
  int channel_index = -1;
  int role_index = -1;  // role the MODULE plays at this ip (0 or 1)
  // interaction name -> global id, split by direction as seen by the module
  std::map<std::string, int, std::less<>> inputs;   // peer-role, arriving
  std::map<std::string, int, std::less<>> outputs;  // module-role, leaving
};

struct ModuleVarInfo {
  std::string name;  // canonical
  const Type* type = nullptr;
};

/// A fully compiled single-module Estelle specification. Move-only; Type*
/// and AST pointers remain valid for the Spec's lifetime.
class Spec {
 public:
  Spec() = default;
  Spec(const Spec&) = delete;
  Spec& operator=(const Spec&) = delete;
  Spec(Spec&&) = default;
  Spec& operator=(Spec&&) = default;

  std::string name;
  SpecAst ast;
  TypeArena types;

  std::vector<std::string> states;       // ordinal = index
  std::vector<SourceLoc> state_locs;     // declaration sites, by ordinal
  std::vector<IpInfo> ips;
  std::vector<InteractionInfo> interactions;  // indexed by global id
  std::vector<ModuleVarInfo> module_vars;     // slot = index
  /// For each state ordinal: indices of transitions whose from-set
  /// includes it, in declaration order (built by sema; the analyzer's
  /// generate operation is a hot path).
  std::vector<std::vector<int>> transitions_by_state;

  [[nodiscard]] const ModuleHeader& module() const { return ast.modules.at(0); }
  [[nodiscard]] const BodyDef& body() const { return ast.bodies.at(0); }

  /// -1 when not found. Names are canonical (lower-case).
  [[nodiscard]] int state_ordinal(std::string_view name) const;
  [[nodiscard]] int ip_index(std::string_view name) const;

  /// Interaction id for `name` arriving at / leaving `ip`; -1 if invalid.
  [[nodiscard]] int input_id(int ip, std::string_view name) const;
  [[nodiscard]] int output_id(int ip, std::string_view name) const;

  [[nodiscard]] const InteractionInfo& interaction(int id) const {
    return interactions.at(static_cast<std::size_t>(id));
  }
};

/// Parses and semantically analyzes `source`. Non-fatal warnings accumulate
/// in `sink`; errors throw CompileError (the first error) after recording
/// everything found so far.
[[nodiscard]] Spec compile_spec(std::string_view source, DiagnosticSink& sink);

/// Convenience overload that discards warnings.
[[nodiscard]] Spec compile_spec(std::string_view source);

}  // namespace tango::est
