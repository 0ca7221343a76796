// Figure 2: the dynamic-traffic motivation experiment. Four pHost flows
// with distinct sender/receiver pairs share one 10Gbps bottleneck; sizes
// are staggered so they finish one after another.
//
// Expected shape (paper Fig. 2b): utilization steps down ~25% with each
// completion — the survivors cannot raise their arrival-clocked rates. The
// AMRT columns show the survivors absorbing the freed bandwidth instead.
#include <cstdio>
#include <iostream>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"

using namespace amrt;
using harness::DynamicConfig;
using harness::DynamicFlow;

namespace {
harness::TimelineResult run(transport::Protocol proto, std::uint64_t seed) {
  using sim::Duration;
  DynamicConfig cfg;
  cfg.proto = proto;
  cfg.seed = seed;
  cfg.flows = {
      DynamicFlow{2'500'000, Duration::zero()},
      DynamicFlow{5'000'000, Duration::zero()},
      DynamicFlow{7'500'000, Duration::zero()},
      DynamicFlow{10'000'000, Duration::zero()},
  };
  cfg.duration = Duration::milliseconds(30);
  cfg.bin = Duration::microseconds(250);
  return harness::run_dynamic(cfg);
}
}  // namespace

int main(int argc, char** argv) {
  const auto opts = harness::bench_options_or_exit(argc, argv);
  harness::SweepRunner runner = harness::make_bench_runner(opts, "fig02");
  const std::vector<transport::Protocol> protos{transport::Protocol::kPhost,
                                                transport::Protocol::kAmrt};
  const auto results =
      runner.map_points(protos, [&](transport::Protocol p) { return run(p, opts.seed); });
  const auto& phost = results[0];
  const auto& amrt_r = results[1];

  harness::Table table{{"t_ms", "pHost_util", "AMRT_util", "pHost_active", "AMRT_active"}};
  auto active = [](const harness::TimelineResult& r, std::size_t b) {
    int n = 0;
    for (const auto& s : r.flow_gbps) {
      if (b < s.size() && s[b] > 0.05) ++n;
    }
    return n;
  };
  for (std::size_t b = 0; b < phost.bottleneck1_util.size(); b += 4) {
    table.add_row({harness::fmt(static_cast<double>(b) * phost.bin.to_millis(), 2),
                   harness::fmt(phost.bottleneck1_util[b]),
                   harness::fmt(b < amrt_r.bottleneck1_util.size() ? amrt_r.bottleneck1_util[b] : 0.0),
                   std::to_string(active(phost, b)), std::to_string(active(amrt_r, b))});
  }

  std::printf("Fig. 2 reproduction: pHost utilization staircase under dynamic traffic\n");
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  std::printf("\nFCTs (ms):   pHost        AMRT\n");
  for (std::size_t f = 0; f < phost.flow_fct_ms.size(); ++f) {
    auto cell = [](double v) { return v < 0 ? std::string("(running)") : harness::fmt(v, 2); };
    std::printf("  f%zu        %-12s %-12s\n", f + 1, cell(phost.flow_fct_ms[f]).c_str(),
                cell(amrt_r.flow_fct_ms[f]).c_str());
  }
  std::printf("mean utilization: pHost %.1f%%, AMRT %.1f%%\n", 100 * phost.mean_util_b1,
              100 * amrt_r.mean_util_b1);
  return 0;
}
