// The analysis-option table (src/core/option_table.hpp): every row round
// trips through each surface it declares, the run header's bytes stay
// those recorded streams carry, a hello can only tighten integer limits,
// --unobservable-ip implies partial everywhere, and every CLI row shows
// in `tango help` and as a did-you-mean candidate (the real binary,
// TANGO_CLI_PATH).
#include "core/option_table.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "support/text.hpp"

namespace tango::core {
namespace {

std::string run_cli(const std::string& args) {
  const std::string command =
      std::string(TANGO_CLI_PATH) + " " + args + " 2>&1";
  std::string out;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return out;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    out.append(buffer.data(), n);
  }
  pclose(pipe);
  return out;
}

/// Does `row` hold the same value in `a` and `b`?
bool same(const OptionRow& row, const Options& a, const Options& b) {
  return row.ips != nullptr ? a.*row.ips == b.*row.ips
                            : row.get(a) == row.get(b);
}

/// Options that differ from the defaults in `row`, one per sample value,
/// each with the CLI argument that spells it.
std::vector<std::pair<Options, std::string>> samples(const OptionRow& row) {
  std::vector<std::pair<Options, std::string>> out;
  const std::string flag(row.flag);
  Options o;
  switch (row.kind) {
    case OptionKind::Bool:
    case OptionKind::NegatedBool:
      row.set(o, row.get(o) == 0 ? 1 : 0);
      out.emplace_back(o, flag);
      break;
    case OptionKind::Integer:
      row.set(o, 7);
      out.emplace_back(o, flag + "=7");
      break;
    case OptionKind::Enum:
    case OptionKind::OrderPreset: {
      std::uint64_t i = 0;
      for (const std::string_view choice : split(row.arg, '|')) {
        Options c;
        row.set(c, i++);
        out.emplace_back(c, flag + "=" + std::string(choice));
      }
      break;
    }
    case OptionKind::IpList:
      (o.*row.ips) = {"a"};
      if (row.ips == &Options::unobservable_ips) o.partial = true;
      out.emplace_back(o, flag + "=A");  // ip names are canonicalized
      break;
  }
  return out;
}

TEST(OptionTable, EveryRowRoundTripsThroughItsSurfaces) {
  for (const OptionRow& row : option_rows()) {
    for (const auto& [options, arg] : samples(row)) {
      if ((row.surfaces & kHeader) != 0) {
        Options back;
        read_options(obs::parse_json(write_options(options, kHeader)),
                     kHeader, back);
        EXPECT_TRUE(same(row, back, options)) << row.key << " header";
      }
      if ((row.surfaces & kHello) != 0) {
        Options back;
        back.jobs = 0;  // unlimited, so the client's value is the tighter
        read_options(obs::parse_json(write_options(options, kHello)),
                     kHello, back);
        EXPECT_TRUE(same(row, back, options)) << row.key << " hello";
      }
      if ((row.surfaces & kCli) != 0) {
        Options back;
        ASSERT_TRUE(parse_cli_option(arg, back)) << arg;
        EXPECT_TRUE(same(row, back, options)) << arg;
      }
    }
  }
}

TEST(OptionTable, DefaultHeaderBytesAreStable) {
  EXPECT_EQ(write_options(Options{}, kHeader),
            R"({"check_input_wrt_output":false,"check_ip_order":false,)"
            R"("check_output_wrt_input":false,"checkpoint":"trail",)"
            R"("deadline_ms":0,"deterministic":false,"disabled_ips":[],)"
            R"("hash_states":false,"initial_state_search":false,)"
            R"("jobs":1,"max_depth":0,"max_memory":0,)"
            R"("max_transitions":0,"partial":false,"prune_on_pgav":false,)"
            R"("reorder_pg_nodes":true,)"
            R"("unobservable_ips":[],"visited_max":0})");
}

TEST(OptionTable, DefaultHelloCarriesOnlyTheOrder) {
  EXPECT_EQ(write_options(Options::io(), kHello), R"({"order":"io"})");
  EXPECT_EQ(write_options(Options{}, kHello), R"({"order":"none"})");
}

TEST(OptionTable, HelloCanOnlyTightenIntegerLimits) {
  for (const OptionRow& row : option_rows()) {
    if (row.kind != OptionKind::Integer || (row.surfaces & kHello) == 0) {
      continue;
    }
    const std::string key(row.key);
    const auto effective = [&](std::uint64_t server, std::uint64_t client) {
      Options o;
      row.set(o, server);
      read_options(obs::parse_json("{\"" + key + "\":" +
                                   std::to_string(client) + "}"),
                   kHello, o);
      return row.get(o);
    };
    EXPECT_EQ(effective(10, 1'000'000), 10u) << key << ": raised";
    EXPECT_EQ(effective(10, 0), 10u) << key << ": lifted to unlimited";
    EXPECT_EQ(effective(10, 5), 5u) << key;
    EXPECT_EQ(effective(0, 5), 5u) << key;
  }
}

TEST(OptionTable, UnobservableIpImpliesPartialOnEverySurface) {
  Options cli;
  ASSERT_TRUE(parse_cli_option("--unobservable-ip=m", cli));
  EXPECT_TRUE(cli.partial);
  for (const Surface surface : {kHello, kHeader}) {
    Options o;
    read_options(
        obs::parse_json(R"({"partial":false,"unobservable_ips":["m"]})"),
        surface, o);
    EXPECT_TRUE(o.partial) << surface;
  }
}

TEST(OptionTable, OrderPresetTouchesOnlyTheOrderChecks) {
  Options o;
  ASSERT_TRUE(parse_cli_option("--max-transitions=1", o));
  ASSERT_TRUE(parse_cli_option("--hash-states", o));
  ASSERT_TRUE(parse_cli_option("--order=full", o));
  EXPECT_EQ(o.max_transitions, 1u);
  EXPECT_TRUE(o.hash_states);
  EXPECT_EQ(order_name(o), "full");
  ASSERT_TRUE(apply_order(o, "nr"));  // the paper's name for none
  EXPECT_EQ(order_name(o), "none");
  EXPECT_EQ(o.max_transitions, 1u);
  EXPECT_FALSE(apply_order(o, "sideways"));
  o.check_ip_order = true;
  o.check_input_wrt_output = true;  // I/O only plus IP: no preset
  EXPECT_EQ(order_name(o), "");
}

TEST(OptionTable, BadValuesAreRejectedOnEverySurface) {
  Options o;
  EXPECT_THROW(parse_cli_option("--max-depth=-1", o), UsageError);
  EXPECT_THROW(parse_cli_option("--partial=yes", o), UsageError);
  EXPECT_THROW(parse_cli_option("--order", o), UsageError);
  EXPECT_FALSE(parse_cli_option("--prune-on-pgav", o));  // header only
  EXPECT_FALSE(parse_cli_option("--checkpoint=copy", o));  // header only
  for (const char* bad :
       {R"({"hash_states":1})", R"({"max_depth":2147483648})",
        R"({"order":"IO"})", R"({"disabled_ips":"u"})"}) {
    EXPECT_THROW(read_options(obs::parse_json(bad), kHello, o),
                 std::runtime_error)
        << bad;
  }
  EXPECT_THROW(read_options(obs::parse_json("[]"), kHeader, o),
               std::runtime_error);
  EXPECT_THROW(read_options(obs::parse_json(R"({"checkpoint":"sideways"})"),
                            kHeader, o),
               std::runtime_error);
}

TEST(OptionTable, EveryCliRowIsInHelpAndADidYouMeanCandidate) {
  const std::string help = run_cli("help");
  for (const OptionRow& row : option_rows()) {
    if ((row.surfaces & kCli) == 0) continue;
    const std::string flag(row.flag);
    const std::string spelling =
        row.arg.empty() ? flag : flag + "=" + std::string(row.arg);
    EXPECT_NE(help.find("  " + spelling + " "), std::string::npos) << flag;
    // Drop the flag's last letter: the slip must point back at it.
    const std::string typo = flag.substr(0, flag.size() - 1);
    const std::string out = run_cli("analyze builtin:abp none.tr " + typo);
    EXPECT_NE(out.find("did you mean '" + flag), std::string::npos)
        << typo << ": " << out;
  }
}

}  // namespace
}  // namespace tango::core
