// The tango command line as a library. `tango`'s main and the main of
// every analyzer `tango generate-cpp` emits call into it, so a generated
// tool parses the same options, runs the same engines and prints the same
// output as `tango analyze` and `tango online`.
#pragma once

#include <string_view>

namespace tango::cli {

/// `tango <command> [args]`; returns the process exit code.
int tango_main(int argc, char** argv);

/// The command line of a generated analyzer for one specification, whose
/// source text is `spec_text` and whose ref (the path or `builtin:<name>`
/// it was generated from) is `spec_ref`:
///   <tool> <trace> [options]          what `tango analyze` runs (DFS)
///   <tool> online <trace> [options]   what `tango online` runs (MDFS)
/// Every analysis option `tango analyze` and `tango online` take works.
int analyzer_main(std::string_view spec_ref, std::string_view spec_text,
                  int argc, char** argv);

}  // namespace tango::cli
