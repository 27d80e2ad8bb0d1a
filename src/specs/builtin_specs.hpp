// Built-in specification texts: the paper's examples (Figures 1 and 2),
// the two evaluation protocols (TP0 §4.2 and a Q.921/LAPD subset §4.1) and
// an alternating-bit protocol used by examples and tests. The texts are the
// files under specs/, embedded at build time (builtin_specs.cpp.in).
#pragma once

#include <string_view>
#include <utility>
#include <vector>

namespace tango::specs {

[[nodiscard]] std::string_view ack();       // paper Figure 1
[[nodiscard]] std::string_view ip3();       // paper Figure 2 (all transitions)
[[nodiscard]] std::string_view ip3prime();  // Figure 2 minus t4/t5 (§3.1.2)
[[nodiscard]] std::string_view abp();       // alternating-bit sender
[[nodiscard]] std::string_view inres();     // INRES initiator
[[nodiscard]] std::string_view tp0();       // ISO Class 0 Transport (§4.2)
[[nodiscard]] std::string_view lapd();      // CCITT Q.921 subset (§4.1)

/// All built-ins: {name, text}. Names: ack, ip3, ip3prime, abp, inres,
/// tp0, lapd.
[[nodiscard]] const std::vector<std::pair<std::string_view, std::string_view>>&
all_builtin_specs();

/// Empty view when unknown.
[[nodiscard]] std::string_view builtin_spec(std::string_view name);

}  // namespace tango::specs
