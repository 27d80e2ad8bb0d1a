// Small string helpers used across the project.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace tango {

/// Case-insensitive equality (ASCII). Estelle/Pascal identifiers and
/// keywords are case-insensitive.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

/// Lower-cases ASCII characters; used for identifier canonicalization.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Strips leading and trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on a delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char delim);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// A flag's value as decimal digits up to `max_value`; anything else
/// ("abc", "-1", overflow) is a UsageError naming the flag.
[[nodiscard]] std::uint64_t parse_flag_u64(
    std::string_view flag, std::string_view text,
    std::uint64_t max_value = std::numeric_limits<std::uint64_t>::max());

}  // namespace tango
