#include "core/option_table.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>

#include "support/diagnostics.hpp"
#include "support/text.hpp"

namespace tango::core {

namespace {

constexpr std::uint64_t kNoChoice = std::numeric_limits<std::uint64_t>::max();

/// A row bound to the field `M`: number accessors, or the ip list itself.
template <auto M>
constexpr OptionRow field(std::string_view key, std::string_view flag,
                          std::string_view arg, OptionKind kind,
                          std::uint8_t surfaces, std::string_view help) {
  using T = std::remove_cvref_t<decltype(std::declval<Options&>().*M)>;
  OptionRow r{key, flag, arg, kind, surfaces, help};
  if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    r.ips = M;
  } else {
    r.get = [](const Options& o) { return static_cast<std::uint64_t>(o.*M); };
    r.set = [](Options& o, std::uint64_t v) { o.*M = static_cast<T>(v); };
    r.max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  }
  return r;
}

/// The three §2.4.2 order checks, as one comparable value.
auto checks(const Options& o) {
  return std::tie(o.check_input_wrt_output, o.check_output_wrt_input,
                  o.check_ip_order);
}

/// The presets in the order of the order row's choices.
const Options& preset(std::uint64_t index) {
  static const Options kPresets[] = {Options::none(), Options::io(),
                                     Options::ip(), Options::full()};
  return kPresets[index];
}

std::uint64_t get_order(const Options& o) {
  for (std::uint64_t i = 0; i < 4; ++i) {
    if (checks(o) == checks(preset(i))) return i;
  }
  return kNoChoice;
}

void set_order(Options& o, std::uint64_t index) {
  std::tie(o.check_input_wrt_output, o.check_output_wrt_input,
           o.check_ip_order) = checks(preset(index));
}

using K = OptionKind;
constexpr std::uint8_t kAll = kCli | kHello | kHeader;

/// A field's row; its key is the field's name.
#define TANGO_OPTION(member, ...) field<&Options::member>(#member, __VA_ARGS__)

// Rows in `tango help` order; the header sorts its keys.
constexpr OptionRow kRows[] = {
    {"order", "--order", "none|io|ip|full", K::OrderPreset, kCli | kHello,
     "relative order checking (§2.4.2): none, I/O and O/I, ip order, or "
     "all three (default io)",
     get_order, set_order},
    TANGO_OPTION(check_input_wrt_output, "", "", K::Bool, kHeader, ""),
    TANGO_OPTION(check_output_wrt_input, "", "", K::Bool, kHeader, ""),
    TANGO_OPTION(check_ip_order, "", "", K::Bool, kHeader, ""),
    TANGO_OPTION(initial_state_search, "--initial-state-search", "", K::Bool,
                 kAll, "try all initial FSM states (§2.4.1)"),
    TANGO_OPTION(partial, "--partial", "", K::Bool, kAll,
                 "undefined-tolerant partial-trace mode (§5)"),
    TANGO_OPTION(disabled_ips, "--disable-ip", "<name>", K::IpList, kAll,
                 "do not check outputs at this ip (§2.4.3); repeatable"),
    TANGO_OPTION(unobservable_ips, "--unobservable-ip", "<name>", K::IpList,
                 kAll, "partial trace: no inputs at this ip (§5); "
                       "repeatable, implies --partial"),
    TANGO_OPTION(hash_states, "--hash-states", "", K::Bool, kAll,
                 "prune revisited states (hash table)"),
    TANGO_OPTION(visited_max, "--visited-max", "<n>", K::Integer,
                 kCli | kHeader, "bound the --hash-states table to n "
                 "entries; overflow evicts a random hash (0 = unlimited)"),
    TANGO_OPTION(checkpoint, "", "copy|trail", K::Enum, kHeader, ""),
    TANGO_OPTION(jobs, "--jobs", "<n>", K::Integer, kAll,
                 "worker threads (default 1; 0 = one per hardware thread) "
                 "for analyze's DFS and fuzz's iterations; for serve, the "
                 "cap on a static session's"),
    TANGO_OPTION(deterministic, "--deterministic", "", K::Bool,
                 kCli | kHeader, "fixed branch ownership and per-task "
                 "budgets: verdict and counters identical for any --jobs "
                 "(docs/PARALLEL.md)"),
    TANGO_OPTION(static_prune, "--no-static-prune", "", K::NegatedBool,
                 kCli | kHeader, "do not consume guard-solver facts during "
                 "generate (pruning never changes verdicts, docs/LINT.md)"),
    TANGO_OPTION(invariant_prune, "--no-invariant-prune", "", K::NegatedBool,
                 kCli | kHeader, "drop only the whole-spec invariant facts "
                 "(ablation); implied by --no-static-prune and "
                 "--initial-state-search"),
    TANGO_OPTION(reorder_pg_nodes, "--no-reorder", "", K::NegatedBool,
                 kCli | kHeader, "disable MDFS dynamic node reordering"),
    TANGO_OPTION(prune_on_pgav, "", "", K::Bool, kHeader, ""),
    TANGO_OPTION(max_transitions, "--max-transitions", "<n>", K::Integer,
                 kAll, "search budget (reason \"transitions\")"),
    TANGO_OPTION(max_depth, "--max-depth", "<n>", K::Integer, kAll,
                 "depth bound (reason \"depth\")"),
    TANGO_OPTION(deadline_ms, "--deadline", "<ms>", K::Integer, kAll,
                 "wall-clock budget, per item in --batch (reason "
                 "\"deadline\")"),
    TANGO_OPTION(max_memory, "--max-memory", "<bytes>", K::Integer, kAll,
                 "budget on the bytes held for backtracking, a deterministic "
                 "proxy for RSS (reason \"memory\", docs/ROBUSTNESS.md)"),
};

#undef TANGO_OPTION

constexpr const OptionRow& kOrderRow = kRows[0];
static_assert(kOrderRow.kind == K::OrderPreset);

/// Index of `name` among the row's choices, kNoChoice when absent.
std::uint64_t choice_index(const OptionRow& row, std::string_view name) {
  if (row.kind == K::OrderPreset && name == "nr") return 0;  // paper's NR
  std::uint64_t i = 0;
  for (const std::string_view choice : split(row.arg, '|')) {
    if (choice == name) return i;
    ++i;
  }
  return kNoChoice;
}

std::string_view choice_name(const OptionRow& row, std::uint64_t index) {
  const std::vector<std::string_view> choices = split(row.arg, '|');
  return index < choices.size() ? choices[index] : std::string_view{};
}

void add_ip(const OptionRow& row, Options& o, std::string_view name) {
  (o.*row.ips).push_back(to_lower(name));
  // §5: missing inputs at an ip need undefined-tolerant semantics.
  if (row.ips == &Options::unobservable_ips) o.partial = true;
}

void write_value(const OptionRow& row, const Options& o, std::string& out) {
  if (row.kind == K::IpList) {
    out += '[';
    for (const std::string& ip : o.*row.ips) {
      if (out.back() != '[') out += ',';
      obs::escape_json_into(out, ip);
    }
    out += ']';
  } else if (row.kind == K::Integer) {
    out += std::to_string(row.get(o));
  } else if (row.kind == K::Enum || row.kind == K::OrderPreset) {
    const std::string_view name = choice_name(row, row.get(o));
    if (name.empty()) {
      throw std::runtime_error(std::string(row.key) + " matches none of " +
                               std::string(row.arg));
    }
    obs::escape_json_into(out, name);
  } else {
    out += row.get(o) != 0 ? "true" : "false";
  }
}

void read_value(const OptionRow& row, const obs::JsonValue& v,
                Surface surface, Options& out) {
  const auto bad = [&](const std::string& what) {
    throw std::runtime_error("'" + std::string(row.key) + "' must be " + what);
  };
  if (row.kind == K::IpList) {
    if (v.type != obs::JsonValue::Type::Array) bad("an array of ip names");
    (out.*row.ips).clear();
    for (const obs::JsonValue& e : v.array) {
      if (!e.is_string()) bad("an array of ip names");
      add_ip(row, out, e.string);
    }
    return;
  }
  std::uint64_t n = 0;
  if (row.kind == K::Integer) {
    if (!v.is_integer || v.integer < 0 ||
        static_cast<std::uint64_t>(v.integer) > row.max) {
      bad("an integer in 0.." + std::to_string(row.max));
    }
    n = static_cast<std::uint64_t>(v.integer);
    const std::uint64_t server = row.get(out);  // a client only tightens it
    if (surface == kHello && server != 0 && (n == 0 || n > server)) {
      n = server;
    }
  } else if (row.kind == K::Enum || row.kind == K::OrderPreset) {
    n = v.is_string() ? choice_index(row, v.string) : kNoChoice;
    if (n == kNoChoice) bad("one of " + std::string(row.arg));
  } else {
    if (!v.is_bool()) bad("a boolean");
    n = v.boolean ? 1 : 0;
  }
  row.set(out, n);
}

}  // namespace

std::span<const OptionRow> option_rows() { return kRows; }

bool parse_cli_option(std::string_view arg, Options& out) {
  const std::size_t eq = arg.find('=');
  const std::string name(arg.substr(0, eq));
  const auto row = std::find_if(
      std::begin(kRows), std::end(kRows), [&](const OptionRow& r) {
        return (r.surfaces & kCli) != 0 && r.flag == name;
      });
  if (row == std::end(kRows)) return false;
  const bool is_flag = row->kind == K::Bool || row->kind == K::NegatedBool;
  if (is_flag != (eq == std::string_view::npos)) {
    throw UsageError(name + (is_flag ? " takes no value" : " needs =" +
                                           std::string(row->arg)));
  }
  const std::string_view value = is_flag ? "" : arg.substr(eq + 1);
  if (row->kind == K::IpList) {
    add_ip(*row, out, value);
    return true;
  }
  std::uint64_t n = row->kind == K::Bool ? 1 : 0;
  if (row->kind == K::Integer) {
    n = parse_flag_u64(name, value, row->max);
  } else if (!is_flag) {
    n = choice_index(*row, value);
    if (n == kNoChoice) {
      throw UsageError("bad " + name + " value '" + std::string(value) +
                           "' (expected " + std::string(row->arg) + ")");
    }
  }
  row->set(out, n);
  return true;
}

std::string write_options(const Options& options, Surface surface) {
  static const Options kDefaults;
  std::vector<const OptionRow*> rows;
  for (const OptionRow& row : kRows) {
    const bool is_default = row.ips != nullptr
                                ? options.*row.ips == kDefaults.*row.ips
                                : row.get(options) == row.get(kDefaults);
    if ((row.surfaces & surface) != 0 &&
        (surface != kHello || row.kind == K::OrderPreset || !is_default)) {
      rows.push_back(&row);
    }
  }
  std::ranges::sort(rows, {}, [](const OptionRow* r) { return r->key; });
  std::string out = "{";
  for (const OptionRow* row : rows) {
    if (out.size() > 1) out += ',';
    obs::escape_json_into(out, row->key);
    out += ':';
    write_value(*row, options, out);
  }
  return out + '}';
}

void read_options(const obs::JsonValue& json, Surface surface, Options& out) {
  if (!json.is_object()) throw std::runtime_error("not a JSON object");
  for (const OptionRow& row : kRows) {
    const obs::JsonValue* v = json.find(row.key);
    if ((row.surfaces & surface) != 0 && v != nullptr) {
      read_value(row, *v, surface, out);
    }
  }
}

bool apply_order(Options& options, std::string_view name) {
  const std::uint64_t i = choice_index(kOrderRow, name);
  if (i == kNoChoice) return false;
  set_order(options, i);
  return true;
}

std::string_view order_name(const Options& options) {
  return choice_name(kOrderRow, get_order(options));
}

}  // namespace tango::core
