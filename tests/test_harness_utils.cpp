// Tests for the harness utilities (tables, options, the experiment config
// check) and the multipath modes used by the ablation benches.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/csv.hpp"
#include "harness/experiment.hpp"
#include "harness/options.hpp"
#include "net/routing.hpp"

using namespace amrt;

TEST(Table, AlignedPrintContainsHeaderAndRows) {
  harness::Table t{{"a", "long_column", "c"}};
  t.add_row({"1", "2", "3"});
  t.add_row({"x", "y", "z"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("long_column"), std::string::npos);
  EXPECT_NE(s.find("x"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvIsCommaSeparated) {
  harness::Table t{{"a", "b"}};
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsArePadded) {
  harness::Table t{{"a", "b", "c"}};
  t.add_row({"1"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b,c\n1,,\n");
}

TEST(Fmt, NumberFormatting) {
  EXPECT_EQ(harness::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(harness::fmt(3.0, 0), "3");
  EXPECT_EQ(harness::fmt_pct(0.368), "36.8%");
  EXPECT_EQ(harness::fmt_pct(1.0, 0), "100%");
}

TEST(BenchOptions, DefaultsAreSane) {
  char prog[] = "bench";
  char* argv[] = {prog};
  const auto o = harness::parse_bench_options(1, argv);
  EXPECT_FALSE(o.paper_scale);
  EXPECT_FALSE(o.csv);
  EXPECT_FALSE(o.flows.has_value());
  EXPECT_EQ(o.seed, 1u);
}

TEST(BenchOptions, ParsesEveryFlag) {
  char prog[] = "bench";
  char a1[] = "--paper-scale";
  char a2[] = "--csv";
  char a3[] = "--flows=123";
  char a4[] = "--seed=9";
  char a5[] = "--loads=0.1,0.5,0.7";
  char a6[] = "--scale=0.5";
  char* argv[] = {prog, a1, a2, a3, a4, a5, a6};
  const auto o = harness::parse_bench_options(7, argv);
  EXPECT_TRUE(o.paper_scale);
  EXPECT_TRUE(o.csv);
  EXPECT_EQ(*o.flows, 123u);
  EXPECT_EQ(o.seed, 9u);
  ASSERT_EQ(o.loads.size(), 3u);
  EXPECT_DOUBLE_EQ(o.loads[1], 0.5);
  EXPECT_DOUBLE_EQ(o.scale, 0.5);
}

TEST(BenchOptions, ScaledAppliesMultiplierAndFloor) {
  harness::BenchOptions o;
  o.scale = 0.5;
  EXPECT_EQ(o.scaled(100), 50u);
  EXPECT_EQ(o.scaled(10), 20u);  // floor
  o.flows = 7;
  EXPECT_EQ(o.scaled(100), 7u);  // explicit override wins
}

TEST(BenchOptions, UnknownFlagsIgnored) {
  char prog[] = "bench";
  char a1[] = "--benchmark_filter=foo";
  char* argv[] = {prog, a1};
  EXPECT_NO_THROW((void)harness::parse_bench_options(2, argv));
}

TEST(BenchOptions, NumbersParseAsWholeTokens) {
  const auto rejects = [](const char* flag) {
    char prog[] = "bench";
    std::string arg = flag;
    char* argv[] = {prog, arg.data()};
    try {
      (void)harness::parse_bench_options(2, argv);
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{};
  };
  EXPECT_EQ(rejects("--threads=4x"), "--threads expects a non-negative integer, got '4x'");
  EXPECT_EQ(rejects("--flows=-1"), "--flows expects a non-negative integer, got '-1'");
  EXPECT_EQ(rejects("--seed=1.5"), "--seed expects a non-negative integer, got '1.5'");
  EXPECT_EQ(rejects("--scale=0.5x"), "--scale expects a number, got '0.5x'");
  EXPECT_EQ(rejects("--loads=0.3,0.5x"), "--loads expects a number, got '0.5x'");
  EXPECT_EQ(rejects("--flows=99999999999999999999"),
            "--flows is out of range: '99999999999999999999'");
}

TEST(BenchOptions, EnvScaleParsesAsAWholeToken) {
  char prog[] = "bench";
  char* argv[] = {prog};
  const char* outer = std::getenv("AMRT_BENCH_SCALE");
  const std::string saved = outer != nullptr ? outer : "";
  ASSERT_EQ(::setenv("AMRT_BENCH_SCALE", "0.25", 1), 0);
  EXPECT_DOUBLE_EQ(harness::parse_bench_options(1, argv).scale, 0.25);
  ASSERT_EQ(::setenv("AMRT_BENCH_SCALE", "2x", 1), 0);
  EXPECT_THROW((void)harness::parse_bench_options(1, argv), std::invalid_argument);
  if (outer != nullptr) {
    ::setenv("AMRT_BENCH_SCALE", saved.c_str(), 1);
  } else {
    ::unsetenv("AMRT_BENCH_SCALE");
  }
}

// --- multipath modes -------------------------------------------------------

namespace {
net::Packet data_to(net::NodeId dst, net::FlowId flow) {
  net::Packet p;
  p.flow = flow;
  p.dst = dst;
  p.type = net::PacketType::kData;
  return p;
}
}  // namespace

TEST(BenchOptions, BoundedNumbersNameTheirLimit) {
  EXPECT_EQ(harness::parse_bounded<unsigned>("--shards", "256", 1u, 256u), 256u);
  auto message = [](const char* text) -> std::string {
    try {
      (void)harness::parse_bounded<unsigned>("--shards", text, 1u, 256u);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(message("0"), "--shards must be at least 1");
  EXPECT_EQ(message("100000"), "--shards must be at most 256");
  EXPECT_EQ(message("4x"), "--shards expects a non-negative integer, got '4x'");
}

// validate() is the one combination check: run_leaf_spine calls it first
// and amrt_sim prints its message. Each exclusion names the flags involved.
TEST(ExperimentValidate, RejectsEachExcludedCombination) {
  auto message = [](const harness::ExperimentConfig& cfg) -> std::string {
    try {
      harness::validate(cfg);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  auto contains = [&](const harness::ExperimentConfig& cfg, const char* needle) {
    return message(cfg).find(needle) != std::string::npos;
  };
  const harness::ExperimentConfig base;
  EXPECT_EQ(message(base), "");

  auto c = base;
  c.shards = 2;
  EXPECT_EQ(message(c), "");
  c.fault_incidents = 2;
  EXPECT_TRUE(contains(c, "--faults and --shards are mutually exclusive"));
  c = base;
  c.shards = 2;
  c.background_dctcp_fraction = 0.3;
  EXPECT_TRUE(contains(c, "--mixed and --shards are mutually exclusive"));
  c = base;
  c.background_dctcp_fraction = 0.3;
  c.proto = transport::Protocol::kNdp;
  EXPECT_TRUE(contains(c, "--mixed pairs DCTCP background with an AMRT foreground"));
  c = base;
  c.fidelity = harness::Fidelity::kFlow;
  c.shards = 2;
  EXPECT_TRUE(contains(c, "--fidelity=flow and --shards are mutually exclusive"));
  c = base;
  c.fidelity = harness::Fidelity::kMixed;
  c.fault_incidents = 1;
  EXPECT_TRUE(contains(c, "--fidelity=mixed and --faults are mutually exclusive"));
  c = base;
  c.fidelity = harness::Fidelity::kMixed;
  c.background_dctcp_fraction = 0.3;
  EXPECT_TRUE(contains(c, "--fidelity=mixed and --mixed are mutually exclusive"));
  c = base;
  c.fidelity = harness::Fidelity::kMixed;
  c.flow_background_fraction = 1.0;
  EXPECT_TRUE(contains(c, "--flow-background in (0, 1)"));
  c = base;
  c.shards = 257;  // rejected before a shard thread could start
  EXPECT_TRUE(contains(c, "--shards must be in [1, 256]"));
  EXPECT_THROW((void)harness::run_leaf_spine(c), std::invalid_argument);
}

TEST(Multipath, SprayRoundRobinsDataPackets) {
  net::RoutingTable rt;
  for (int p = 0; p < 4; ++p) rt.add_route(net::NodeId{1}, p);
  rt.set_mode(net::MultipathMode::kPacketSpray);
  std::set<int> used;
  for (int i = 0; i < 4; ++i) used.insert(rt.select(data_to(net::NodeId{1}, 7)));
  EXPECT_EQ(used.size(), 4u) << "four consecutive packets of one flow hit four paths";
}

TEST(Multipath, SprayKeepsControlOnHashedPath) {
  net::RoutingTable rt;
  for (int p = 0; p < 4; ++p) rt.add_route(net::NodeId{1}, p);
  rt.set_mode(net::MultipathMode::kPacketSpray);
  net::Packet grant;
  grant.flow = 7;
  grant.dst = net::NodeId{1};
  grant.type = net::PacketType::kGrant;
  const int first = rt.select(grant);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rt.select(grant), first);
}

TEST(Multipath, PerFlowModeIsDefaultAndStable) {
  net::RoutingTable rt;
  for (int p = 0; p < 4; ++p) rt.add_route(net::NodeId{1}, p);
  EXPECT_EQ(rt.mode(), net::MultipathMode::kPerFlowEcmp);
  const int first = rt.select(data_to(net::NodeId{1}, 7));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rt.select(data_to(net::NodeId{1}, 7)), first);
}
