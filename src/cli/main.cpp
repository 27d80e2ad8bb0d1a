// tango — trace analysis tool generator for Estelle specifications. The
// commands live in the tango_cli library (cli/cli.cpp).
#include "cli/cli.hpp"

int main(int argc, char** argv) { return tango::cli::tango_main(argc, argv); }
