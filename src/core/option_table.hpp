// The one home of the analysis options: each row names a core::Options
// field once, with the surfaces it appears on —
//   Cli     the `--flag`, its `tango help` line and did-you-mean candidate;
//   Hello   a hello-frame member, overlaid on the server's defaults;
//   Header  a key of the run header's `flags` object, decoded by replay.
// Exposing a field on a surface takes one row.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "obs/json.hpp"

namespace tango::core {

enum class OptionKind : std::uint8_t {
  Bool,         // the CLI flag sets true
  NegatedBool,  // the CLI `--no-...` flag sets false
  Integer,      // non-negative; a budget or cap where 0 = unlimited
  Enum,         // one of `arg`'s '|'-separated names, by enumerator value
  IpList,       // ip names; each CLI use appends one
  OrderPreset,  // a §2.4.2 preset; sets exactly the three order checks
};

enum Surface : std::uint8_t { kCli = 1, kHello = 2, kHeader = 4 };

struct OptionRow {
  std::string_view key;   // the field's name: hello member and header key
  std::string_view flag;  // CLI spelling ("--max-depth"), "" when not on it
  /// The value's help placeholder ("<n>"); for Enum and OrderPreset rows
  /// the choices ("copy|trail"), which the value must be one of.
  std::string_view arg;
  OptionKind kind;
  std::uint8_t surfaces;  // Surface bits
  std::string_view help;
  /// Scalar rows: the field as a number (bool 0/1, enumerator value,
  /// preset index in `arg`). IpList rows have `ips` instead.
  std::uint64_t (*get)(const Options&) = nullptr;
  void (*set)(Options&, std::uint64_t) = nullptr;
  std::uint64_t max = 0;  // Integer bound
  std::vector<std::string> Options::*ips = nullptr;
};

[[nodiscard]] std::span<const OptionRow> option_rows();

/// Applies one CLI argument ("--max-depth=5") when it spells a Cli row,
/// else returns false. Throws UsageError on a bad or missing value.
bool parse_cli_option(std::string_view arg, Options& out);

/// The rows on `surface` as a JSON object with sorted keys. The header
/// carries every row; the hello the order plus the rows that differ from
/// a default Options, so absent members keep the server's defaults.
[[nodiscard]] std::string write_options(const Options& options,
                                        Surface surface);

/// Overlays the members of `json` that name rows on `surface` onto `out`.
/// On the Hello surface an Integer only tightens: the smaller of the two,
/// 0 meaning unlimited. Throws std::runtime_error on a bad member.
void read_options(const obs::JsonValue& json, Surface surface, Options& out);

/// The one order-preset parser: "none" (or the paper's "nr"), "io", "ip"
/// or "full" sets the three order checks. False on an unknown name.
bool apply_order(Options& options, std::string_view name);

/// The preset the order checks match; "" when none does.
[[nodiscard]] std::string_view order_name(const Options& options);

}  // namespace tango::core
