// ctest smoke for the deterministic scenario fuzzer (src/harness/fuzz.hpp).
//
// Built in every configuration: the completion/physics/queue-accounting
// oracles run everywhere, and under -DAMRT_AUDIT=ON the same cases also run
// with the full invariant auditor live. The seed budget here is deliberately
// modest (ctest must stay fast); the scenario_fuzz CLI runs the deep sweeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "audit/auditor.hpp"
#include "harness/fuzz.hpp"

using namespace amrt;
using harness::fuzz::CaseConfig;
using harness::fuzz::CaseResult;
using harness::fuzz::FuzzOptions;
using harness::fuzz::Topo;

namespace {

// Collect-don't-abort so a violation surfaces as a readable test failure
// with its repro line instead of a process abort.
struct NoFailFast : ::testing::Test {
  void SetUp() override { audit::set_fail_fast(false); }
  void TearDown() override { audit::set_fail_fast(true); }
};

using FuzzSmoke = NoFailFast;
using FuzzDeterminism = NoFailFast;

}  // namespace

TEST_F(FuzzSmoke, SeedBudgetAllOraclesHold) {
  // 5 seeds x 4 topologies x 4 transports = 80 cases; every failure prints
  // the standalone one-line repro.
  FuzzOptions opts;
  opts.first_seed = 1;
  opts.seeds = 5;
  const auto report = harness::fuzz::run_fuzz(opts);
  EXPECT_EQ(report.cases, 80u);
  EXPECT_EQ(report.failures, 0u);
  for (const auto& line : report.failure_lines) ADD_FAILURE() << line;
}

TEST_F(FuzzDeterminism, SameCaseReplaysBitIdentically) {
  for (const auto topo : harness::fuzz::kAllTopos) {
    const CaseConfig cfg{42, topo, transport::Protocol::kAmrt};
    const auto r1 = harness::fuzz::run_case(cfg);
    const auto r2 = harness::fuzz::run_case(cfg);
    ASSERT_TRUE(r1.ok) << harness::fuzz::repro_line(cfg) << ": " << r1.failure;
    EXPECT_EQ(r1.hash, r2.hash) << harness::fuzz::repro_line(cfg);
    EXPECT_EQ(r1.events, r2.events);
    EXPECT_EQ(r1.drops, r2.drops);
    EXPECT_EQ(r1.trims, r2.trims);
    EXPECT_EQ(r1.completed, r2.completed);
  }
}

// The replay contract across commits: a repro line printed by one build
// must reproduce the same case on a later one. The fingerprints below were
// recorded before the serial and sharded case runners became one
// ShardedScenario path; any drift in the parameter stream, the fabric
// builders, the flow schedule or event order changes a hash.
TEST_F(FuzzDeterminism, ReplayHashesArePinned) {
  using transport::Protocol;
  struct Pinned {
    CaseConfig cfg;
    std::uint64_t events;
    std::uint64_t drops;
    std::uint64_t hash;
  };
  // CaseConfig{seed, topo, proto, faults, shards, mixed, engine}.
  const std::vector<Pinned> pinned = {
      // Serial, all four topologies.
      {{1, Topo::kLeafSpine, Protocol::kAmrt}, 5541, 86, 0x58bfc39728a2bafaULL},
      {{1, Topo::kLeafSpine, Protocol::kHoma}, 840, 0, 0x632f6dc4127bb511ULL},
      {{1, Topo::kDumbbell, Protocol::kAmrt}, 11007, 38, 0x7b60f1b5ff3c975aULL},
      {{1, Topo::kDumbbell, Protocol::kNdp}, 51802, 0, 0x790f5ff453478712ULL},
      {{2, Topo::kChain, Protocol::kAmrt}, 6971, 160, 0x5bb61375b006604dULL},
      {{2, Topo::kFatTree, Protocol::kAmrt}, 642, 0, 0xc6e63c04740ebe0dULL},
      {{2, Topo::kFatTree, Protocol::kPhost}, 3274, 0, 0x1cb0a756f6681597ULL},
      // --shards 2.
      {{1, Topo::kLeafSpine, Protocol::kAmrt, false, 2}, 5541, 86, 0x25410bcd60e9e0d2ULL},
      {{1, Topo::kLeafSpine, Protocol::kHoma, false, 2}, 840, 0, 0x1b33c45b84ee4f29ULL},
      {{2, Topo::kFatTree, Protocol::kAmrt, false, 2}, 642, 0, 0x6795549fc9a32371ULL},
      // --faults.
      {{1, Topo::kLeafSpine, Protocol::kAmrt, true}, 5545, 86, 0x4a44e0b35569ff7eULL},
      {{2, Topo::kDumbbell, Protocol::kHoma, true}, 3665, 0, 0x2f677c39a91cc3c6ULL},
      {{3, Topo::kChain, Protocol::kAmrt, true}, 14448, 0, 0xcd5205390e1f6457ULL},
      // --mixed.
      {{2, Topo::kLeafSpine, Protocol::kAmrt, false, 1, true}, 5317, 0, 0x3b4a9c8e67cb77adULL},
      {{1, Topo::kChain, Protocol::kAmrt, false, 1, true}, 13980, 0, 0x9dcc8ded9c57997aULL},
      // --workload-engine.
      {{1, Topo::kLeafSpine, Protocol::kPhost, false, 1, false, true}, 1236, 0,
       0x479174a1eaeda2ecULL},
      {{1, Topo::kDumbbell, Protocol::kAmrt, false, 1, false, true}, 1440, 31,
       0x5edafcebce400d28ULL},
      {{4, Topo::kLeafSpine, Protocol::kNdp, false, 1, false, true}, 3169, 0,
       0x6d077d04cbbf7d14ULL},
  };
  for (const Pinned& p : pinned) {
    const auto r = harness::fuzz::run_case(p.cfg);
    const std::string line = harness::fuzz::repro_line(p.cfg);
    EXPECT_TRUE(r.ok) << line << ": " << r.failure;
    EXPECT_EQ(r.events, p.events) << line;
    EXPECT_EQ(r.drops, p.drops) << line;
    EXPECT_EQ(r.hash, p.hash) << line;
  }
}

// One check guards both entry points (run_case and the scenario_fuzz CLI);
// each rejected combination names its flags.
TEST(FuzzValidate, RejectsEachExcludedCombination) {
  using transport::Protocol;
  auto message = [](CaseConfig c) -> std::string {
    try {
      harness::fuzz::validate(c);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  CaseConfig ok{1, Topo::kFatTree, Protocol::kAmrt};
  ok.shards = 2;
  EXPECT_EQ(message(ok), "");

  CaseConfig c = ok;
  c.faults = true;
  EXPECT_NE(message(c).find("--faults and --shards are mutually exclusive"), std::string::npos);
  c = ok;
  c.mixed = true;
  EXPECT_NE(message(c).find("--mixed and --shards are mutually exclusive"), std::string::npos);
  c = CaseConfig{1, Topo::kLeafSpine, Protocol::kNdp};
  c.mixed = true;
  EXPECT_NE(message(c).find("--mixed requires --transport amrt"), std::string::npos);
  c = ok;
  c.topo = Topo::kChain;
  EXPECT_NE(message(c).find("--shards does not support topology chain"), std::string::npos);
  c = ok;
  c.shards = 0;
  EXPECT_NE(message(c).find("--shards must be in [1, 256]"), std::string::npos);
  c.shards = 257;  // rejected before any shard thread could start
  EXPECT_NE(message(c).find("--shards must be in [1, 256]"), std::string::npos);
  EXPECT_THROW((void)harness::fuzz::run_case(c), std::invalid_argument);
}

TEST_F(FuzzDeterminism, DifferentSeedsDiverge) {
  const auto r1 = harness::fuzz::run_case({1, Topo::kLeafSpine, transport::Protocol::kAmrt});
  const auto r2 = harness::fuzz::run_case({2, Topo::kLeafSpine, transport::Protocol::kAmrt});
  EXPECT_NE(r1.hash, r2.hash);  // the seed must actually reach the case
}

TEST_F(FuzzDeterminism, SerialAndParallelSweepsIdentical) {
  using Key = std::tuple<std::uint64_t, int, int>;
  auto sweep = [](unsigned threads) {
    FuzzOptions opts;
    opts.first_seed = 1;
    opts.seeds = 3;
    opts.threads = threads;
    std::map<Key, std::uint64_t> hashes;
    opts.on_case = [&hashes](const CaseConfig& c, const CaseResult& r) {
      hashes[{c.seed, static_cast<int>(c.topo), static_cast<int>(c.proto)}] = r.hash;
    };
    const auto report = harness::fuzz::run_fuzz(opts);
    EXPECT_EQ(report.failures, 0u);
    return hashes;
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), 48u);
  EXPECT_EQ(serial, parallel);
}

TEST(FuzzRepro, LineNamesSeedTopoAndTransport) {
  const CaseConfig cfg{7, Topo::kDumbbell, transport::Protocol::kNdp};
  const auto line = harness::fuzz::repro_line(cfg);
  EXPECT_NE(line.find("scenario_fuzz"), std::string::npos);
  EXPECT_NE(line.find("--seed 7"), std::string::npos);
  EXPECT_NE(line.find("--topo dumbbell"), std::string::npos);
  EXPECT_NE(line.find("--transport"), std::string::npos);
  // And the names round-trip back into a config.
  EXPECT_EQ(harness::fuzz::topo_from_string("dumbbell"), Topo::kDumbbell);
  EXPECT_EQ(harness::fuzz::topo_from_string("leaf-spine"), Topo::kLeafSpine);
  EXPECT_EQ(harness::fuzz::topo_from_string("fat-tree"), Topo::kFatTree);
  EXPECT_THROW((void)harness::fuzz::topo_from_string("torus"), std::invalid_argument);
}

TEST(FuzzRepro, FailFastAbortPrintsTheReplayLine) {
  // The CI contract: when a fuzz case trips an invariant in fail-fast mode,
  // the abort names the exact repro command. Exercised with a synthetic
  // violation so it works on a healthy tree; audit-only because without
  // AMRT_AUDIT the hooks are stubs and nothing can trip.
  if (!audit::Auditor::enabled()) {
    GTEST_SKIP() << "requires -DAMRT_AUDIT=ON (the audit preset)";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const CaseConfig cfg{7, Topo::kDumbbell, transport::Protocol::kNdp};
  EXPECT_DEATH(
      {
        audit::set_fail_fast(true);
        audit::set_context(harness::fuzz::repro_line(cfg));
        audit::Auditor a;
        audit::PacketInfo p;
        p.flow = 1;
        a.on_inject(p);
        a.on_deliver(p);
        a.on_deliver(p);
      },
      "replay: scenario_fuzz --seed 7 --topo dumbbell");
}
