// Unit tests for the flow-level fast path (src/flowsim): fabric link layout
// and path resolution, max-min water-filling (the incremental solver against
// a from-scratch reference and a feasibility oracle), the AMRT/DCTCP/
// traditional rate ramps, usage recording and observer accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "flowsim/fabric.hpp"
#include "flowsim/flowsim.hpp"
#include "sim/rng.hpp"
#include "stats/fct.hpp"

using namespace amrt;
using namespace amrt::flowsim;
using namespace amrt::sim::literals;
using amrt::sim::Bandwidth;
using amrt::sim::Duration;
using amrt::sim::TimePoint;

namespace {

constexpr double kCapBps = 10e9;

Fabric small_ls() { return Fabric::leaf_spine(2, 2, 2, Bandwidth::gbps(10)); }

FlowSimConfig quiet_config() {
  FlowSimConfig cfg;
  cfg.rtt = 100_us;
  cfg.payload_fraction = 1460.0 / 1500.0;
  cfg.prop_delay = 10_us;
  cfg.mtu_tx = Duration::nanoseconds(1200);
  return cfg;
}

// Payload bytes/sec a 10G link carries under the MSS/MTU derate.
double payload_Bps(const FlowSimConfig& cfg) { return kCapBps / 8.0 * cfg.payload_fraction; }

}  // namespace

// ---------------------------------------------------------------------------
// Fabric: layout and path resolution.

TEST(FlowFabric, LeafSpineLinkLayout) {
  const Fabric f = small_ls();
  EXPECT_EQ(f.n_hosts(), 4u);
  // [4 host up][4 host down][2*2 leaf up][2*2 spine down].
  EXPECT_EQ(f.link_count(), 16u);
  EXPECT_EQ(f.host_up(0), 0u);
  EXPECT_EQ(f.host_down(0), 4u);
  EXPECT_EQ(f.leaf_up(0, 0), 8u);
  EXPECT_EQ(f.leaf_up(1, 1), 11u);
  EXPECT_EQ(f.spine_down(0, 0), 12u);
  EXPECT_EQ(f.spine_down(1, 1), 15u);
  for (LinkId l = 0; l < f.link_count(); ++l) EXPECT_DOUBLE_EQ(f.capacity_bps(l), kCapBps);
}

TEST(FlowFabric, IntraLeafPathSkipsTheFabric) {
  const Fabric f = small_ls();
  std::vector<LinkId> path;
  f.path(7, 0, 1, path);  // hosts 0,1 share leaf 0
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], f.host_up(0));
  EXPECT_EQ(path[1], f.host_down(1));
}

TEST(FlowFabric, InterLeafPathIsDeterministicPerFlow) {
  const Fabric f = small_ls();
  std::vector<LinkId> a, b;
  f.path(42, 0, 2, a);  // leaf 0 -> leaf 1
  f.path(42, 0, 2, b);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a, b);  // the ECMP choice is a pure function of the flow id
  const int spine = static_cast<int>(path_hash(42) % 2);
  EXPECT_EQ(a[1], f.leaf_up(0, spine));
  EXPECT_EQ(a[2], f.spine_down(spine, 1));
}

TEST(FlowFabric, FatTreePathLengthsByLocality) {
  const Fabric f = Fabric::fat_tree(4, Bandwidth::gbps(10));
  EXPECT_EQ(f.n_hosts(), 16u);  // k^3/4
  std::vector<LinkId> path;
  f.path(1, 0, 1, path);  // same edge switch
  EXPECT_EQ(path.size(), 2u);
  path.clear();
  f.path(1, 0, 2, path);  // same pod, different edge
  EXPECT_EQ(path.size(), 4u);
  path.clear();
  f.path(1, 0, 15, path);  // inter-pod: up to a core and back down
  EXPECT_EQ(path.size(), 6u);
}

TEST(FlowFabric, RejectsBadHostPairs) {
  const Fabric f = small_ls();
  std::vector<LinkId> path;
  EXPECT_THROW(f.path(1, 0, 0, path), std::invalid_argument);
  EXPECT_THROW(f.path(1, 0, 99, path), std::invalid_argument);
  EXPECT_THROW(Fabric::fat_tree(3, Bandwidth::gbps(10)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MaxMinSolver: exactness against the from-scratch scan, feasibility.

namespace {

// The from-scratch water filling FlowSim ran before the incremental solver,
// kept as the differential reference. Every active flow (in handle order)
// is re-solved; each round scans every used link for the smallest share
// (first seen wins ties) and every path for the flows crossing it.
std::vector<double> scan_water_fill(const std::vector<double>& capacity,
                                    const std::vector<const std::vector<LinkId>*>& paths) {
  std::vector<double> cap_rem(capacity.size(), 0.0);
  std::vector<std::uint32_t> cnt(capacity.size(), 0);
  std::vector<LinkId> used;
  for (const auto* path : paths) {
    for (const LinkId l : *path) {
      if (cnt[l] == 0) {
        used.push_back(l);
        cap_rem[l] = capacity[l];
      }
      ++cnt[l];
    }
  }
  std::vector<double> target(paths.size(), 0.0);
  std::vector<char> frozen(paths.size(), 0);
  std::size_t left = paths.size();
  while (left > 0) {
    double best = -1.0;
    LinkId best_link = 0;
    for (const LinkId l : used) {
      if (cnt[l] == 0) continue;
      const double share = cap_rem[l] / static_cast<double>(cnt[l]);
      if (best < 0.0 || share < best) {
        best = share;
        best_link = l;
      }
    }
    if (best < 0.0) break;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (frozen[i] != 0) continue;
      const auto& path = *paths[i];
      if (std::find(path.begin(), path.end(), best_link) == path.end()) continue;
      frozen[i] = 1;
      --left;
      target[i] = best;
      for (const LinkId l : path) {
        cap_rem[l] = std::max(0.0, cap_rem[l] - best);
        --cnt[l];
      }
    }
  }
  return target;
}

enum class CaseKind { kLeafSpine, kFatTree, kRandomLinks };

// A flow population over one network: per-link capacities and every flow's
// path, indexed by solver handle. Paths are fixed before the first add().
struct SolverCase {
  std::vector<double> capacity;
  std::vector<std::vector<LinkId>> paths;
};

SolverCase make_case(CaseKind kind, sim::Rng& rng, std::size_t n_flows) {
  SolverCase c;
  if (kind == CaseKind::kRandomLinks) {
    // Arbitrary capacities (some equal, to force ties) and 1-4 link paths.
    const auto n_links = static_cast<std::size_t>(rng.uniform_int(4, 40));
    const double rates[] = {1.25e8, 1.25e9, 1.25e9, 3.0e9, 5.0e9};
    for (std::size_t l = 0; l < n_links; ++l) {
      c.capacity.push_back(rng.bernoulli(0.5) ? rates[rng.index(5)] : rng.uniform(1e8, 5e9));
    }
    for (std::size_t i = 0; i < n_flows; ++i) {
      std::vector<LinkId> path;
      const auto len = static_cast<std::size_t>(rng.uniform_int(1, 4));
      while (path.size() < std::min(len, n_links)) {
        const auto l = static_cast<LinkId>(rng.index(n_links));
        if (std::find(path.begin(), path.end(), l) == path.end()) path.push_back(l);
      }
      c.paths.push_back(std::move(path));
    }
    return c;
  }
  const Fabric fabric =
      kind == CaseKind::kFatTree
          ? Fabric::fat_tree(4, Bandwidth::gbps(10))
          : Fabric::leaf_spine(static_cast<int>(rng.uniform_int(2, 4)),
                               static_cast<int>(rng.uniform_int(1, 4)),
                               static_cast<int>(rng.uniform_int(2, 4)), Bandwidth::gbps(10));
  const double payload_fraction = 1460.0 / 1500.0;
  for (LinkId l = 0; l < fabric.link_count(); ++l) {
    c.capacity.push_back(fabric.capacity_bps(l) / 8.0 * payload_fraction);
  }
  for (std::size_t i = 0; i < n_flows; ++i) {
    const std::size_t src = rng.index(fabric.n_hosts());
    std::size_t dst = rng.index(fabric.n_hosts() - 1);
    if (dst >= src) ++dst;
    std::vector<LinkId> path;
    fabric.path(i + 1, src, dst, path);
    c.paths.push_back(std::move(path));
  }
  return c;
}

// Drives a solver through a random arrival/completion sequence: each step
// adds or removes a small batch of flows, then solves. `check` sees the
// active handles (ascending), the solver and the handles solve() returned.
template <typename Check>
void drive(const SolverCase& c, sim::Rng& rng, std::size_t steps, Check&& check) {
  MaxMinSolver solver{c.capacity};
  std::vector<std::uint32_t> active;
  std::uint32_t next = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    const bool can_add = next < c.paths.size();
    const bool add = can_add && (active.size() < 4 || rng.bernoulli(0.55));
    if (!add && active.empty()) break;
    const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t b = 0; b < batch; ++b) {
      if (add && next < c.paths.size()) {
        solver.add(next, c.paths[next]);
        active.push_back(next++);
      } else if (!add && !active.empty()) {
        const std::size_t i = rng.index(active.size());
        solver.remove(active[i]);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    const std::vector<std::uint32_t>& solved = solver.solve();
    check(active, solver, solved);
  }
}

CaseKind kind_for(std::uint64_t seed) { return static_cast<CaseKind>(seed % 3); }

}  // namespace

TEST(MaxMinSolver, MatchesTheScanWaterFillBitForBit) {
  // 240 seeds over leaf-spine, k=4 fat-tree and random-capacity networks;
  // every 20th seed runs a long sequence of several thousand membership
  // changes. After every solve, every active flow's share (re-solved or
  // not) must equal the from-scratch reference bit for bit.
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    sim::Rng rng{seed};
    const bool long_run = seed % 20 == 0;
    const SolverCase c = make_case(kind_for(seed), rng, long_run ? 1500 : 120);
    std::vector<double> previous(c.paths.size(), -1.0);
    std::size_t mismatches = 0;
    drive(c, rng, long_run ? 4000 : 200,
          [&](const std::vector<std::uint32_t>& active, const MaxMinSolver& solver,
              const std::vector<std::uint32_t>& solved) {
            std::vector<const std::vector<LinkId>*> paths;
            for (const std::uint32_t h : active) paths.push_back(&c.paths[h]);
            const std::vector<double> want = scan_water_fill(c.capacity, paths);
            for (std::size_t i = 0; i < active.size(); ++i) {
              const double got = solver.share(active[i]);
              if (std::bit_cast<std::uint64_t>(got) != std::bit_cast<std::uint64_t>(want[i])) {
                ++mismatches;
              }
              // A share that moved must have been re-solved.
              if (got != previous[active[i]]) {
                EXPECT_TRUE(std::binary_search(solved.begin(), solved.end(), active[i]))
                    << "seed " << seed << " handle " << active[i];
              }
              previous[active[i]] = got;
            }
            EXPECT_TRUE(std::is_sorted(solved.begin(), solved.end()));
          });
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(MaxMinSolver, SharesAreFeasibleAndMaxMinFair) {
  // The max-min oracle, after every solve on randomized leaf-spine and k=4
  // fat-tree flow sets: no link carries more than its capacity, and every
  // flow crosses a saturated link on which no flow gets more than it does.
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    sim::Rng rng{seed};
    const CaseKind kind = seed % 2 == 0 ? CaseKind::kFatTree : CaseKind::kLeafSpine;
    const SolverCase c = make_case(kind, rng, 200);
    std::vector<double> load(c.capacity.size());
    std::vector<double> top(c.capacity.size());
    drive(c, rng, 300,
          [&](const std::vector<std::uint32_t>& active, const MaxMinSolver& solver,
              const std::vector<std::uint32_t>&) {
            std::fill(load.begin(), load.end(), 0.0);
            std::fill(top.begin(), top.end(), 0.0);
            for (const std::uint32_t h : active) {
              for (const LinkId l : c.paths[h]) {
                load[l] += solver.share(h);
                top[l] = std::max(top[l], solver.share(h));
              }
            }
            for (LinkId l = 0; l < c.capacity.size(); ++l) {
              ASSERT_LE(load[l], c.capacity[l] * (1.0 + 1e-12)) << "seed " << seed << " link " << l;
            }
            for (const std::uint32_t h : active) {
              const double share = solver.share(h);
              ASSERT_GT(share, 0.0);
              const bool bottlenecked =
                  std::any_of(c.paths[h].begin(), c.paths[h].end(), [&](LinkId l) {
                    return load[l] >= c.capacity[l] * (1.0 - 1e-9) && share >= top[l] * (1.0 - 1e-9);
                  });
              ASSERT_TRUE(bottlenecked) << "seed " << seed << " handle " << h;
            }
          });
  }
}

TEST(MaxMinSolver, ReSolvesOnlyTheTouchedComponent) {
  // Links 0-3; flows {0,1} share link 1, flow 2 owns link 3.
  MaxMinSolver solver{{10.0, 10.0, 10.0, 10.0}};
  const std::vector<LinkId> a{0, 1}, b{1, 2}, c{3}, d{2};
  solver.add(0, a);
  solver.add(1, b);
  solver.add(2, c);
  EXPECT_EQ(solver.solve(), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(solver.share(0), 5.0);
  EXPECT_EQ(solver.share(1), 5.0);
  EXPECT_EQ(solver.share(2), 10.0);

  // Joining flow 1's component on link 2 re-solves {0, 1, 3}, not flow 2.
  solver.add(3, d);
  EXPECT_EQ(solver.solve(), (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(solver.share(3), 5.0);
  // Flow 1 leaving splits the component; both halves are re-solved.
  solver.remove(1);
  EXPECT_EQ(solver.solve(), (std::vector<std::uint32_t>{0, 3}));
  EXPECT_EQ(solver.share(0), 10.0);
  EXPECT_EQ(solver.share(3), 10.0);
  // Nothing changed: nothing to re-solve.
  EXPECT_TRUE(solver.solve().empty());
  EXPECT_THROW(solver.add(2, c), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FlowSim: draining, sharing, ramps.

TEST(FlowSim, SingleFlowDrainsAtPayloadRate) {
  const Fabric f = small_ls();
  const FlowSimConfig cfg = quiet_config();
  FlowSim fs{f, cfg};
  const std::uint64_t bytes = 1'460'000;
  fs.add_flow(1, 0, 1, bytes, TimePoint::zero(), RateModel::kInstant);

  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  const FlowSimResult r = fs.run(&rec);
  EXPECT_EQ(r.started, 1u);
  EXPECT_EQ(r.completed, 1u);
  ASSERT_EQ(rec.completed().size(), 1u);

  // Drain time at the payload-derated line rate, plus the 2-link pipeline
  // latency (2 props + 1 store-and-forward MTU).
  const double drain_s = static_cast<double>(bytes) / payload_Bps(cfg);
  const double want_us = drain_s * 1e6 + 2 * 10.0 + 1.2;
  EXPECT_NEAR(rec.completed()[0].fct().to_micros(), want_us, 1.0);
  EXPECT_EQ(rec.bytes_delivered(), bytes);
}

TEST(FlowSim, EqualSharingDoublesTheDrainTime) {
  const Fabric f = small_ls();
  const FlowSimConfig cfg = quiet_config();
  FlowSim fs{f, cfg};
  const std::uint64_t bytes = 1'460'000;
  // Both flows bottleneck on host 0's downlink.
  fs.add_flow(1, 1, 0, bytes, TimePoint::zero(), RateModel::kInstant);
  fs.add_flow(2, 2, 0, bytes, TimePoint::zero(), RateModel::kInstant);

  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  fs.run(&rec);
  ASSERT_EQ(rec.completed().size(), 2u);
  const double drain_us = static_cast<double>(bytes) / payload_Bps(cfg) * 1e6;
  for (const auto& flow : rec.completed()) {
    EXPECT_NEAR(flow.fct().to_micros(), 2 * drain_us, 2 * drain_us * 0.02 + 50.0);
  }
}

TEST(FlowSim, MaxMinWaterFillingPropagatesResidualShares) {
  const Fabric f = Fabric::leaf_spine(1, 1, 4, Bandwidth::gbps(10));
  const FlowSimConfig cfg = quiet_config();
  FlowSim fs{f, cfg};
  const std::uint64_t bytes = 1'460'000;
  // A and B share host 0's uplink (half rate each); C owns its own path.
  fs.add_flow(1, 0, 1, bytes, TimePoint::zero(), RateModel::kInstant);
  fs.add_flow(2, 0, 2, bytes, TimePoint::zero(), RateModel::kInstant);
  fs.add_flow(3, 3, 2, bytes, TimePoint::zero(), RateModel::kInstant);

  // C shares host 2's downlink with B (B frozen at half by the uplink), so
  // max-min gives C the remaining half plus the slack: C = cap - cap/2.
  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  fs.run(&rec);
  ASSERT_EQ(rec.completed().size(), 3u);
  const double drain_us = static_cast<double>(bytes) / payload_Bps(cfg) * 1e6;
  const auto fct_us = [&](std::uint64_t id) {
    for (const auto& flow : rec.completed()) {
      if (flow.flow == id) return flow.fct().to_micros();
    }
    return -1.0;
  };
  EXPECT_NEAR(fct_us(1), 2 * drain_us, 2 * drain_us * 0.02 + 50.0);
  EXPECT_NEAR(fct_us(2), 2 * drain_us, 2 * drain_us * 0.02 + 50.0);
  EXPECT_NEAR(fct_us(3), 2 * drain_us, 2 * drain_us * 0.02 + 50.0);
}

namespace {

// One long foreground flow disturbed by a short burst: returns the long
// flow's FCT under `model`. The burst halves the long flow's share; after it
// drains, the model decides how fast the rate comes back.
double disturbed_fct_us(RateModel model, bool ramp_latest) {
  const Fabric f = Fabric::leaf_spine(1, 1, 4, Bandwidth::gbps(10));
  FlowSimConfig cfg = quiet_config();
  cfg.amrt_ramp_latest = ramp_latest;
  FlowSim fs{f, cfg};
  const std::uint64_t long_bytes = 12'166'666;  // ~10ms at the payload rate
  const std::uint64_t burst_bytes = 1'216'666;  // ~2ms at half rate
  fs.add_flow(1, 0, 1, long_bytes, TimePoint::zero(), model);
  fs.add_flow(2, 2, 1, burst_bytes, TimePoint::zero() + 1_ms, RateModel::kInstant);

  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  fs.run(&rec);
  for (const auto& flow : rec.completed()) {
    if (flow.flow == 1) return flow.fct().to_micros();
  }
  return -1.0;
}

}  // namespace

TEST(FlowSim, RampModelsOrderRecoverySpeed) {
  const double instant = disturbed_fct_us(RateModel::kInstant, false);
  const double amrt_early = disturbed_fct_us(RateModel::kAmrtGrantClock, false);
  const double amrt_late = disturbed_fct_us(RateModel::kAmrtGrantClock, true);
  const double dctcp = disturbed_fct_us(RateModel::kDctcpThreshold, false);
  const double traditional = disturbed_fct_us(RateModel::kTraditional, false);
  ASSERT_GT(instant, 0.0);

  // Eq. 4 vs Eq. 5 vs Eq. 6 ordering: the earliest AMRT ramp recovers within
  // about one RTT of instant; the latest bound is slower; DCTCP's one-MSS
  // additive increase is slower still; traditional never recovers at all.
  EXPECT_GE(amrt_early, instant - 1.0);
  EXPECT_LE(amrt_early, instant + 2 * 100.0);  // within ~2 RTTs of ideal
  EXPECT_GT(amrt_late, amrt_early);
  EXPECT_GT(dctcp, amrt_late);
  EXPECT_GT(traditional, dctcp);

  // Traditional is pinned at half rate for its remaining ~9/10 of the bytes:
  // analytically fct ~ 1ms at full + ~11.17ms/0.5... just bound it hard.
  EXPECT_GT(traditional, instant * 1.5);
}

TEST(FlowSim, TraditionalRateNeverRecovers) {
  // Direct check of the Eq. 6 semantics: after the burst departs, a
  // traditional flow's completion matches the no-recovery prediction.
  const Fabric f = Fabric::leaf_spine(1, 1, 4, Bandwidth::gbps(10));
  const FlowSimConfig cfg = quiet_config();
  FlowSim fs{f, cfg};
  const double cap = payload_Bps(cfg);
  const std::uint64_t long_bytes = static_cast<std::uint64_t>(cap * 0.010);  // 10ms of bytes
  const std::uint64_t burst_bytes = static_cast<std::uint64_t>(cap * 0.001);
  fs.add_flow(1, 0, 1, long_bytes, TimePoint::zero(), RateModel::kTraditional);
  fs.add_flow(2, 2, 1, burst_bytes, TimePoint::zero() + 1_ms, RateModel::kInstant);

  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  fs.run(&rec);
  double fct_us = -1.0;
  for (const auto& flow : rec.completed()) {
    if (flow.flow == 1) fct_us = flow.fct().to_micros();
  }
  // 1ms at full rate, then cap/2 forever: remaining 9ms of bytes take 18ms.
  EXPECT_NEAR(fct_us, 1'000.0 + 18'000.0, 250.0);
}

TEST(FlowSim, UsageRecordingConservesBytes) {
  const Fabric f = small_ls();
  const FlowSimConfig cfg = quiet_config();
  FlowSim fs{f, cfg};
  const std::uint64_t bytes = 2'920'000;
  fs.add_flow(1, 0, 1, bytes, TimePoint::zero(), RateModel::kInstant);
  fs.record_link_usage(500_us);
  fs.run(nullptr);

  const LinkId up = f.host_up(0);
  EXPECT_NEAR(fs.link_bytes(up), static_cast<double>(bytes), 1.0);
  EXPECT_EQ(fs.link_first_busy(up), TimePoint::zero());
  // usage_[link][bin] is a mean rate over the bin: integrate it back.
  double integrated = 0.0;
  for (const double mean_rate : fs.link_usage()[up]) integrated += mean_rate * 500e-6;
  EXPECT_NEAR(integrated, static_cast<double>(bytes), static_cast<double>(bytes) * 1e-6);
  // An untouched link recorded nothing.
  EXPECT_DOUBLE_EQ(fs.link_bytes(f.host_up(3)), 0.0);
}

TEST(FlowSim, ObserverSeesEveryByteExactlyOnce) {
  const Fabric f = small_ls();
  FlowSim fs{f, quiet_config()};
  const std::uint64_t sizes[] = {1460, 73'000, 1'460'000};
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    fs.add_flow(i + 1, i % 2, 2 + (i % 2), sizes[i],
                TimePoint::zero() + Duration::microseconds(static_cast<std::int64_t>(i * 50)),
                RateModel::kAmrtGrantClock);
    total += sizes[i];
  }
  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  const FlowSimResult r = fs.run(&rec);
  EXPECT_EQ(r.started, 3u);
  EXPECT_EQ(r.completed, 3u);
  EXPECT_EQ(rec.bytes_delivered(), total);
  EXPECT_EQ(rec.incomplete_count(), 0u);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.recomputes, 0u);
}

TEST(FlowSim, MaxTimeLeavesFlowsIncomplete) {
  const Fabric f = small_ls();
  FlowSimConfig cfg = quiet_config();
  cfg.max_time = TimePoint::zero() + 1_ms;
  FlowSim fs{f, cfg};
  // ~12ms of bytes cannot finish inside a 1ms horizon.
  fs.add_flow(1, 0, 1, 14'600'000, TimePoint::zero(), RateModel::kInstant);
  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  const FlowSimResult r = fs.run(&rec);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(rec.incomplete_count(), 1u);
  EXPECT_EQ(r.end_time, cfg.max_time);
}

TEST(FlowSim, RejectsBadConfigAndFlows) {
  const Fabric f = small_ls();
  FlowSimConfig bad_rtt = quiet_config();
  bad_rtt.rtt = Duration::zero();
  EXPECT_THROW((FlowSim{f, bad_rtt}), std::invalid_argument);

  FlowSimConfig bad_frac = quiet_config();
  bad_frac.payload_fraction = 0.0;
  EXPECT_THROW((FlowSim{f, bad_frac}), std::invalid_argument);

  FlowSim fs{f, quiet_config()};
  EXPECT_THROW(fs.add_flow(1, 0, 1, 0, TimePoint::zero(), RateModel::kInstant),
               std::invalid_argument);
  EXPECT_THROW(fs.record_link_usage(Duration::zero()), std::invalid_argument);
}
