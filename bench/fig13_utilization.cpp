// Figure 13: bottleneck (receiver downlink) utilization vs number of flows
// under the five realistic workloads, for pHost / Homa / NDP / AMRT.
//
// Default: scaled-down fabric with flow counts {100, 200, 400}; --paper-scale
// uses Section 8.1's fabric and counts up to 800. Expected shape: AMRT
// highest everywhere (paper: +36.8% / +22.5% / +11.6% over pHost / Homa /
// NDP on Data Mining at 800 flows), with ordering AMRT > NDP > Homa > pHost.
#include <cstdio>
#include <iostream>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "harness/sweep.hpp"

using namespace amrt;
using harness::ExperimentConfig;

namespace {
constexpr transport::Protocol kProtos[] = {transport::Protocol::kPhost, transport::Protocol::kHoma,
                                           transport::Protocol::kNdp, transport::Protocol::kAmrt};
}

int main(int argc, char** argv) {
  const auto opts = harness::bench_options_or_exit(argc, argv);
  std::vector<std::size_t> flow_counts =
      opts.paper_scale ? std::vector<std::size_t>{100, 200, 400, 800}
                       : std::vector<std::size_t>{100, 200, 400};
  if (opts.flows) flow_counts = {*opts.flows};

  harness::Table table{{"workload", "flows", "pHost_util", "Homa_util", "NDP_util", "AMRT_util",
                        "AMRT_vs_pHost", "AMRT_vs_Homa", "AMRT_vs_NDP"}};

  std::printf("Fig. 13 reproduction: bottleneck utilization vs flow count (%s scale)\n",
              opts.paper_scale ? "paper" : "laptop");

  std::vector<ExperimentConfig> points;
  for (auto wk : workload::kAllKinds) {
    for (std::size_t n : flow_counts) {
      for (auto proto : kProtos) {
        ExperimentConfig cfg;
        cfg.proto = proto;
        cfg.workload = wk;
        cfg.load = 0.6;  // a busy fabric, short of saturation
        cfg.n_flows = static_cast<std::size_t>(static_cast<double>(n) * opts.scale);
        cfg.seed = opts.seed;
        if (opts.paper_scale) {
          cfg.leaves = 10;
          cfg.spines = 8;
          cfg.hosts_per_leaf = 40;
          cfg.link_delay = sim::Duration::microseconds(100);
        }
        points.push_back(cfg);
      }
    }
  }

  harness::SweepRunner runner = harness::make_bench_runner(opts, "fig13");
  const auto results = runner.run(points);
  harness::export_json_if_requested(opts, points, results);

  std::size_t idx = 0;
  for (auto wk : workload::kAllKinds) {
    for (std::size_t n : flow_counts) {
      double util[4] = {0, 0, 0, 0};
      for (int p = 0; p < 4; ++p) {
        const auto& r = results[idx];
        util[p] = r.mean_utilization;
        std::fprintf(stderr, "  [%s %s n=%zu] util=%.3f done=%zu/%zu wall=%.1fs\n",
                     workload::abbrev(wk), transport::to_string(kProtos[p]), points[idx].n_flows,
                     util[p], r.flows_completed, r.flows_started, r.wall_seconds);
        ++idx;
      }
      auto gain = [&](int base) { return util[base] > 0 ? (util[3] - util[base]) / util[base] : 0.0; };
      table.add_row({workload::abbrev(wk), std::to_string(n), harness::fmt_pct(util[0]),
                     harness::fmt_pct(util[1]), harness::fmt_pct(util[2]), harness::fmt_pct(util[3]),
                     harness::fmt_pct(gain(0)), harness::fmt_pct(gain(1)), harness::fmt_pct(gain(2))});
    }
  }

  if (opts.csv) table.print_csv(std::cout); else table.print(std::cout);
  std::printf("\nPaper reference (Data Mining, 800 flows): pHost ~61%%, Homa ~68%%, NDP ~75%%;\n"
              "AMRT improves them by ~36.8%%, ~22.5%%, ~11.6%% respectively.\n");
  return 0;
}
