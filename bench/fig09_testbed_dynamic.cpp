// Figure 9: the testbed dynamic-traffic experiment (Fig. 8 topology) on the
// simulated 1GbE substrate. Two independent bottlenecks: f1/f2 share one,
// f3/f4 the other. f1 finishes early; f2 should absorb its bandwidth within
// ~2ms; f3 finishes later and f4 absorbs in turn.
//
// Expected shape (paper Fig. 9): each survivor's normalized throughput steps
// from ~0.5 to ~1.0 shortly after its partner completes, and both
// bottlenecks end up fully utilized.
#include <cstdio>
#include <iostream>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"

using namespace amrt;
using harness::DynamicConfig;
using harness::DynamicFlow;

int main(int argc, char** argv) {
  const auto opts = harness::bench_options_or_exit(argc, argv);
  using sim::Duration;

  // The two bottlenecks are independent; model them as two runs of the
  // shared-bottleneck rig at 1Gbps (see DESIGN.md's experiment index).
  DynamicConfig pair_a;
  pair_a.proto = transport::Protocol::kAmrt;
  pair_a.link_rate = sim::Bandwidth::gbps(1);
  pair_a.link_delay = Duration::microseconds(100);  // testbed-like ~0.6ms RTT
  pair_a.seed = opts.seed;
  pair_a.flows = {DynamicFlow{300'000, Duration::zero()}, DynamicFlow{1'800'000, Duration::zero()}};
  pair_a.duration = Duration::milliseconds(25);
  pair_a.bin = Duration::microseconds(500);

  DynamicConfig pair_b = pair_a;
  pair_b.flows = {DynamicFlow{800'000, Duration::zero()}, DynamicFlow{2'000'000, Duration::zero()}};

  harness::SweepRunner runner = harness::make_bench_runner(opts, "fig09");
  const std::vector<DynamicConfig> cells{pair_a, pair_b};
  const auto results =
      runner.map_points(cells, [](const DynamicConfig& c) { return harness::run_dynamic(c); });
  const auto& ra = results[0];
  const auto& rb = results[1];

  harness::Table table{{"t_ms", "f1_norm", "f2_norm", "f3_norm", "f4_norm", "B_a_util", "B_b_util"}};
  auto norm = [](const std::vector<double>& v, std::size_t b) {
    return b < v.size() ? v[b] / 1.0 : 0.0;  // 1Gbps link => Gbps is the normalized unit
  };
  const std::size_t bins = std::max(ra.bottleneck1_util.size(), rb.bottleneck1_util.size());
  for (std::size_t b = 0; b < bins; b += 2) {
    table.add_row({harness::fmt(static_cast<double>(b) * ra.bin.to_millis(), 1),
                   harness::fmt(norm(ra.flow_gbps[0], b)), harness::fmt(norm(ra.flow_gbps[1], b)),
                   harness::fmt(norm(rb.flow_gbps[0], b)), harness::fmt(norm(rb.flow_gbps[1], b)),
                   harness::fmt(b < ra.bottleneck1_util.size() ? ra.bottleneck1_util[b] : 0.0),
                   harness::fmt(b < rb.bottleneck1_util.size() ? rb.bottleneck1_util[b] : 0.0)});
  }

  std::printf("Fig. 9 reproduction: AMRT throughput under dynamic traffic (1GbE testbed params)\n");
  if (opts.csv) table.print_csv(std::cout); else table.print(std::cout);

  std::printf("\nf1 fct %.2fms (f2 absorbs after), f3 fct %.2fms (f4 absorbs after)\n",
              ra.flow_fct_ms[0], rb.flow_fct_ms[0]);
  std::printf("bottleneck mean utilization: a %.1f%%, b %.1f%%\n", 100 * ra.mean_util_b1,
              100 * rb.mean_util_b1);
  return 0;
}
