// Incast sweep (Section 8.2's second scenario): N synchronized senders to
// one receiver with Section 6's small-buffer discipline, N from 8 to 64.
// Reports AFCT, p99, drops/trims and goodput per protocol.
//
// Expected shape: NDP never drops (trims instead); AMRT recovers with its
// 1xRTT grant reissue and stays close to the best AFCT; everyone completes.
#include <cstdio>
#include <iostream>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"

using namespace amrt;

int main(int argc, char** argv) {
  const auto opts = harness::bench_options_or_exit(argc, argv);
  harness::Table table{{"senders", "proto", "afct_us", "p99_us", "completed", "max_queue", "drops",
                        "trims", "goodput_gbps"}};

  std::printf("Incast sweep: synchronized fan-in, 64KB per sender, 8-packet buffers\n");
  std::vector<harness::IncastConfig> points;
  for (int n : {8, 16, 32, 64}) {
    for (auto proto : {transport::Protocol::kPhost, transport::Protocol::kHoma,
                       transport::Protocol::kNdp, transport::Protocol::kAmrt}) {
      harness::IncastConfig cfg;
      cfg.proto = proto;
      cfg.senders = n;
      cfg.queues.buffer_pkts = 8;
      cfg.queues.trim_threshold = 8;
      cfg.seed = opts.seed;
      points.push_back(cfg);
    }
  }

  harness::SweepRunner runner = harness::make_bench_runner(opts, "incast");
  const auto results = runner.map_points(
      points, [](const harness::IncastConfig& cfg) { return harness::run_incast(cfg); });

  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& cfg = points[i];
    const auto& r = results[i];
    table.add_row({std::to_string(cfg.senders), transport::to_string(cfg.proto),
                   harness::fmt(r.fct.afct_us, 1), harness::fmt(r.fct.p99_us, 1),
                   std::to_string(r.fct.completed) + "/" + std::to_string(cfg.senders),
                   std::to_string(r.max_queue_pkts), std::to_string(r.drops),
                   std::to_string(r.trims), harness::fmt(r.goodput_gbps)});
  }
  if (opts.csv) table.print_csv(std::cout); else table.print(std::cout);
  return 0;
}
