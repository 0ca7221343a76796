// Figure 7: the Section-5 model's minimum/maximum utilization gain and FCT
// gain for AMRT over a traditional receiver-driven protocol.
//
//  (a)/(b): utilization gain vs R/C for flow sizes 100KB / 1MB / 10MB
//  (c)/(d): FCT gain vs T_R/T_i for the same sizes at R/C = 0.5
//
// Settings follow the paper: C = 1Gbps, RTT = 100us, T_R = 0 for (a)/(b).
// Expected shape: both gains are >= 1 everywhere, grow as R/C falls and as
// the flow size grows, and the min/max curves bracket a narrow band.
#include <cstdio>
#include <iostream>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "harness/sweep.hpp"
#include "model/amrt_model.hpp"

using namespace amrt;

int main(int argc, char** argv) {
  const auto opts = harness::bench_options_or_exit(argc, argv);
  const double C = 1e9;      // 1 Gbps
  const double rtt = 100e-6; // 100 us
  const double sizes[] = {100e3, 1e6, 10e6};

  harness::SweepRunner runner = harness::make_bench_runner(opts, "fig07");

  std::printf("Fig. 7(a)(b): utilization gain vs R/C (C=1Gbps, RTT=100us, T_R=0)\n");
  harness::Table util{{"R_over_C", "min_100KB", "max_100KB", "min_1MB", "max_1MB", "min_10MB",
                       "max_10MB"}};
  std::vector<double> rcs;
  for (double rc = 0.1; rc < 0.95; rc += 0.1) rcs.push_back(rc);
  const auto util_rows = runner.map_points(rcs, [&](double rc) {
    std::vector<std::string> row{harness::fmt(rc, 1)};
    for (double s : sizes) {
      model::Scenario sc{s, C, rc * C, 0.0, rtt};
      const auto g = model::utilization_gain_bounds(sc);
      row.push_back(harness::fmt(g.min_gain));
      row.push_back(harness::fmt(g.max_gain));
    }
    return row;
  });
  for (auto row : util_rows) util.add_row(std::move(row));
  if (opts.csv) util.print_csv(std::cout); else util.print(std::cout);

  std::printf("\nFig. 7(c)(d): FCT gain vs T_R/T_i (R/C=0.5)\n");
  harness::Table fct{{"TR_over_Ti", "min_100KB", "max_100KB", "min_1MB", "max_1MB", "min_10MB",
                      "max_10MB"}};
  std::vector<double> fracs;
  for (double frac = 0.0; frac < 0.85; frac += 0.1) fracs.push_back(frac);
  const auto fct_rows = runner.map_points(fracs, [&](double frac) {
    std::vector<std::string> row{harness::fmt(frac, 1)};
    for (double s : sizes) {
      const double ti = s * 8.0 / C;
      model::Scenario sc{s, C, 0.5 * C, frac * ti, rtt};
      const auto g = model::fct_gain_bounds(sc);
      row.push_back(harness::fmt(g.min_gain));
      row.push_back(harness::fmt(g.max_gain));
    }
    return row;
  });
  for (auto row : fct_rows) fct.add_row(std::move(row));
  if (opts.csv) fct.print_csv(std::cout); else fct.print(std::cout);

  std::printf("\nFill-time bounds (Eq. 4/5), n=6 slots: ");
  for (std::uint32_t k = 1; k <= 5; ++k) {
    const auto ft = model::fill_time(6, k);
    std::printf("k=%u:[%.0f,%.0f]RTT ", k, ft.min_rtts, ft.max_rtts);
  }
  std::printf("\n");
  return 0;
}
