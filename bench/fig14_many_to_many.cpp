// Figure 14: many-to-many communication with unresponsive senders. Forty
// senders (under two leaves) each open connections to two receivers (under a
// third leaf); only a fraction of senders answer grants. Homa runs with
// overcommitment degrees 2/4/8, AMRT with plain anti-ECN granting.
//
// Expected shape (paper Fig. 14): Homa's downlink utilization rises with K
// but its queue grows ~4x from K=2 to K=8; AMRT matches the best utilization
// with a small queue at every responsive ratio.
#include <cstdio>
#include <iostream>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"

using namespace amrt;
using harness::ManyToManyConfig;

namespace {
struct Cell {
  double util = 0;
  double max_q = 0;
};

// The four table columns per ratio row: Homa K=2/4/8 and AMRT.
struct Variant {
  transport::Protocol proto;
  int overcommit;
};
constexpr Variant kVariants[] = {{transport::Protocol::kHoma, 2},
                                 {transport::Protocol::kHoma, 4},
                                 {transport::Protocol::kHoma, 8},
                                 {transport::Protocol::kAmrt, 2}};
}  // namespace

int main(int argc, char** argv) {
  const auto opts = harness::bench_options_or_exit(argc, argv);
  // Paper averages 50 repetitions; the default keeps 5 for speed.
  const int repeats = opts.paper_scale ? 50 : std::max(1, static_cast<int>(5 * opts.scale));

  harness::Table table{{"ratio", "Homa_K2_util", "Homa_K4_util", "Homa_K8_util", "AMRT_util",
                        "Homa_K2_maxQ", "Homa_K4_maxQ", "Homa_K8_maxQ", "AMRT_maxQ"}};

  std::printf("Fig. 14 reproduction: utilization & queueing vs responsive sender ratio (%d repeats)\n",
              repeats);

  // Flatten ratio x variant x repeat into one sweep; repeats only differ in
  // seed and are averaged per (ratio, variant) cell afterwards.
  std::vector<double> ratios;
  for (double ratio = 0.1; ratio <= 1.001; ratio += opts.paper_scale ? 0.1 : 0.2) {
    ratios.push_back(ratio);
  }
  std::vector<ManyToManyConfig> points;
  for (double ratio : ratios) {
    for (const auto& v : kVariants) {
      for (int rep = 0; rep < repeats; ++rep) {
        ManyToManyConfig cfg;
        cfg.proto = v.proto;
        cfg.homa_overcommit = v.overcommit;
        cfg.responsive_ratio = ratio;
        cfg.seed = opts.seed + static_cast<std::uint64_t>(rep) * 7919;
        points.push_back(cfg);
      }
    }
  }

  harness::SweepRunner runner = harness::make_bench_runner(opts, "fig14");
  const auto results = runner.map_points(
      points, [](const ManyToManyConfig& cfg) { return harness::run_many_to_many(cfg); });

  std::size_t idx = 0;
  for (double ratio : ratios) {
    Cell cells[4];
    for (auto& cell : cells) {
      for (int rep = 0; rep < repeats; ++rep) {
        const auto& r = results[idx++];
        cell.util += r.mean_downlink_util;
        cell.max_q += static_cast<double>(r.max_queue_pkts);
      }
      cell.util /= repeats;
      cell.max_q /= repeats;
    }
    table.add_row({harness::fmt(ratio, 1), harness::fmt_pct(cells[0].util),
                   harness::fmt_pct(cells[1].util), harness::fmt_pct(cells[2].util),
                   harness::fmt_pct(cells[3].util), harness::fmt(cells[0].max_q, 0),
                   harness::fmt(cells[1].max_q, 0), harness::fmt(cells[2].max_q, 0),
                   harness::fmt(cells[3].max_q, 0)});
  }

  if (opts.csv) table.print_csv(std::cout); else table.print(std::cout);
  std::printf("\nPaper reference: at ratio 0.5, Homa K=8 improves utilization ~32%% over K=2 but\n"
              "queues ~4x deeper; AMRT keeps both high utilization and a short queue.\n");
  return 0;
}
