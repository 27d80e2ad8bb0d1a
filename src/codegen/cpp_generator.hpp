// `tango generate-cpp`: the "tool generator" half of Tango. For one
// specification it emits a C++ translation unit whose main embeds the
// specification's source text and runs the core engines on it through
// cli::analyzer_main. Linked with tango_cli, the unit builds into a trace
// analyzer for that protocol alone, with the command line and output of
// `tango analyze` and `tango online`. Transitions are interpreted, not
// compiled (DESIGN.md, deviations).
#pragma once

#include <string>
#include <string_view>

namespace tango::codegen {

/// The analyzer's translation unit for the specification text
/// `spec_text`, known by `spec_ref` (the path or `builtin:<name>` it was
/// loaded from; event streams record it for replay). Both are embedded
/// byte for byte. The caller checks the specification first.
[[nodiscard]] std::string generate_cpp(std::string_view spec_ref,
                                       std::string_view spec_text);

}  // namespace tango::codegen
