// Figure 1: the multi-bottleneck motivation experiment. Four pHost flows on
// a two-bottleneck chain (10Gbps, ~100us RTT, per-flow sender/receiver
// pairs): f0 crosses both bottlenecks, f1 shares the first with it, f2 and
// f3 the second. f2 starts at 1ms, f3 at 3.5ms.
//
// Expected shape (paper Fig. 1b): the first bottleneck starts ~fully used
// by f0+f1; when f2 starts, f0's rate collapses and the first bottleneck's
// utilization drops toward ~83%, then toward ~66% when f3 starts — f1 never
// grabs the bandwidth f0 released. The AMRT column shows the contrast: f1
// climbs as f0 shrinks.
#include <cstdio>
#include <iostream>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"

using namespace amrt;
using harness::ChainConfig;
using harness::ChainFlow;
using harness::ChainPath;

namespace {
harness::TimelineResult run(transport::Protocol proto, std::uint64_t seed) {
  using sim::Duration;
  ChainConfig cfg;
  cfg.proto = proto;
  cfg.seed = seed;
  // Long-lived flows so the timeline, not the completions, is the subject.
  cfg.flows = {
      ChainFlow{ChainPath::kBoth, 30'000'000, Duration::zero()},            // f0
      ChainFlow{ChainPath::kFirst, 30'000'000, Duration::zero()},           // f1
      ChainFlow{ChainPath::kSecond, 30'000'000, Duration::milliseconds(1)}, // f2
      ChainFlow{ChainPath::kSecond, 30'000'000, sim::Duration::nanoseconds(3'500'000)},  // f3
  };
  cfg.duration = Duration::milliseconds(7);
  cfg.bin = Duration::microseconds(250);
  return harness::run_chain(cfg);
}
}  // namespace

int main(int argc, char** argv) {
  const auto opts = harness::bench_options_or_exit(argc, argv);
  harness::SweepRunner runner = harness::make_bench_runner(opts, "fig01");
  const std::vector<transport::Protocol> protos{transport::Protocol::kPhost,
                                                transport::Protocol::kAmrt};
  const auto results =
      runner.map_points(protos, [&](transport::Protocol p) { return run(p, opts.seed); });
  const auto& phost = results[0];
  const auto& amrt_r = results[1];

  harness::Table table{{"t_ms", "pHost_f0_gbps", "pHost_f1_gbps", "pHost_B1_util", "AMRT_f0_gbps",
                        "AMRT_f1_gbps", "AMRT_B1_util"}};
  auto at = [](const std::vector<double>& v, std::size_t i) { return i < v.size() ? v[i] : 0.0; };
  for (std::size_t b = 0; b < phost.bottleneck1_util.size(); b += 2) {
    table.add_row({harness::fmt(static_cast<double>(b) * phost.bin.to_millis(), 2),
                   harness::fmt(at(phost.flow_gbps[0], b)), harness::fmt(at(phost.flow_gbps[1], b)),
                   harness::fmt(phost.bottleneck1_util[b]), harness::fmt(at(amrt_r.flow_gbps[0], b)),
                   harness::fmt(at(amrt_r.flow_gbps[1], b)), harness::fmt(amrt_r.bottleneck1_util[b])});
  }

  std::printf("Fig. 1 reproduction: pHost under-utilization on the first bottleneck\n");
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  auto window_mean = [&](const std::vector<double>& u, double from_ms, double to_ms) {
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t b = 0; b < u.size(); ++b) {
      const double t = static_cast<double>(b) * phost.bin.to_millis();
      if (t >= from_ms && t < to_ms) {
        sum += u[b];
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  };
  std::printf("\npHost B1 utilization: before f2 %.1f%%, f2..f3 %.1f%% (paper ~83%%), after f3 %.1f%% (paper ~66%%)\n",
              100 * window_mean(phost.bottleneck1_util, 0.3, 1.0),
              100 * window_mean(phost.bottleneck1_util, 1.5, 3.5),
              100 * window_mean(phost.bottleneck1_util, 4.5, 7.0));
  std::printf("AMRT  B1 utilization: before f2 %.1f%%, f2..f3 %.1f%%, after f3 %.1f%% (marking refills)\n",
              100 * window_mean(amrt_r.bottleneck1_util, 0.3, 1.0),
              100 * window_mean(amrt_r.bottleneck1_util, 1.5, 3.5),
              100 * window_mean(amrt_r.bottleneck1_util, 4.5, 7.0));
  return 0;
}
