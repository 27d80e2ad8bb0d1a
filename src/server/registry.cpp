#include "server/registry.hpp"

#include <utility>

#include "specs/builtin_specs.hpp"

namespace tango::srv {

void SpecRegistry::preload(std::string ref, std::string_view text) {
  PreparedSpec prepared;
  prepared.ref = std::move(ref);
  prepared.spec = est::compile_spec(text);
  storage_.push_back(std::move(prepared));
  const PreparedSpec& stored = storage_.back();
  index_[stored.ref] = &stored;
}

const PreparedSpec* SpecRegistry::find(std::string_view ref) const {
  const auto it = index_.find(ref);
  return it == index_.end() ? nullptr : it->second;
}

SpecRegistry SpecRegistry::with_builtins() {
  SpecRegistry reg;
  for (const auto& [name, text] : specs::all_builtin_specs()) {
    reg.preload("builtin:" + std::string(name), text);
  }
  return reg;
}

}  // namespace tango::srv
