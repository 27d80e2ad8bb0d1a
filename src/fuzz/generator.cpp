#include "fuzz/generator.hpp"

#include <algorithm>

namespace tango::fuzz {

namespace {

std::int64_t uniform(std::mt19937& rng, std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
}

}  // namespace

rt::Value random_value(const est::Type* type, std::mt19937& rng,
                       const GenConfig& config) {
  switch (type->kind) {
    case est::TypeKind::Integer:
      return rt::Value::make_int(uniform(rng, 0, config.int_bound));
    case est::TypeKind::Boolean:
      return rt::Value::make_bool(uniform(rng, 0, 1) != 0);
    case est::TypeKind::Char:
      return rt::Value::make_char(
          static_cast<char>('a' + uniform(rng, 0, 25)));
    case est::TypeKind::Enum:
      return rt::Value::make_enum(
          type,
          uniform(rng, 0,
                  static_cast<std::int64_t>(type->enum_values.size()) - 1));
    case est::TypeKind::Subrange:
      return rt::Value::make_int(uniform(rng, type->lo, type->hi));
    case est::TypeKind::Array: {
      rt::Value out = rt::Value::make_aggregate(
          rt::Value::Kind::Array,
          static_cast<std::size_t>(type->hi - type->lo + 1));
      for (rt::Value& e : out.elems()) {
        e = random_value(type->element, rng, config);
      }
      return out;
    }
    case est::TypeKind::Record: {
      rt::Value out = rt::Value::make_aggregate(rt::Value::Kind::Record,
                                                type->fields.size());
      for (std::size_t i = 0; i < type->fields.size(); ++i) {
        out.elems()[i] = random_value(type->fields[i].type, rng, config);
      }
      return out;
    }
    case est::TypeKind::Pointer:
      return rt::Value::nil();
  }
  return rt::Value{};
}

std::vector<std::pair<int, int>> stimulus_alphabet(const est::Spec& spec) {
  std::vector<std::pair<int, int>> alphabet;
  for (std::size_t ip = 0; ip < spec.ips.size(); ++ip) {
    for (const auto& [name, id] : spec.ips[ip].inputs) {
      alphabet.emplace_back(static_cast<int>(ip), id);
    }
  }
  return alphabet;
}

std::vector<sim::Feed> synthesize_feeds(const est::Spec& spec,
                                        std::mt19937& rng,
                                        const GenConfig& config) {
  const std::vector<std::pair<int, int>> alphabet = stimulus_alphabet(spec);
  std::vector<sim::Feed> feeds;
  if (alphabet.empty()) return feeds;

  const int count = static_cast<int>(
      uniform(rng, config.min_feeds, std::max(config.min_feeds,
                                              config.max_feeds)));
  std::uint64_t step = 0;
  for (int i = 0; i < count; ++i) {
    step += static_cast<std::uint64_t>(
        uniform(rng, 0, static_cast<std::int64_t>(config.max_step_gap)));
    const auto& [ip, interaction] = alphabet[static_cast<std::size_t>(
        uniform(rng, 0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    sim::Feed f;
    f.at_step = step;
    f.ip = ip;
    f.interaction = interaction;
    const est::InteractionInfo& info = spec.interaction(interaction);
    f.params.reserve(info.param_types.size());
    for (const est::Type* t : info.param_types) {
      f.params.push_back(random_value(t, rng, config));
    }
    feeds.push_back(std::move(f));
  }
  return feeds;
}

}  // namespace tango::fuzz
