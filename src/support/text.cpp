#include "support/text.hpp"

#include <cctype>

#include "support/diagnostics.hpp"

namespace tango {

namespace {
char lower(char c) {
  return static_cast<char>(
      std::tolower(static_cast<unsigned char>(c)));
}
}  // namespace

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

std::string to_lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(lower(c));
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::uint64_t parse_flag_u64(std::string_view flag, std::string_view text,
                             std::uint64_t max_value) {
  const std::string name(flag);
  if (text.empty()) throw UsageError(name + " needs a number");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw UsageError("bad " + name + " value '" + std::string(text) +
                           "' (expected a non-negative integer)");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max_value - digit) / 10) {
      throw UsageError(name + " value '" + std::string(text) +
                           "' is out of range (max " +
                           std::to_string(max_value) + ")");
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace tango
