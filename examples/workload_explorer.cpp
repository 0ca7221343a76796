// Prints the five Section 8.1 workload distributions: knots, analytic mean,
// key quantiles and the fraction of tiny flows — then samples each to show
// the generator converging on the analytic mean.
#include <cstdio>

#include "sim/rng.hpp"
#include "workload/traffic.hpp"
#include "workload/workloads.hpp"

using namespace amrt;

int main() {
  std::printf("%-16s %-10s %-12s %-12s %-12s %-12s %-10s\n", "workload", "abbrev", "mean",
              "p50", "p90", "p99", "<10KB");
  for (auto kind : workload::kAllKinds) {
    const auto& cdf = workload::cdf(kind);
    std::printf("%-16s %-10s %-12.0f %-12.0f %-12.0f %-12.0f %.0f%%\n", workload::name(kind),
                workload::abbrev(kind), cdf.mean_bytes(), cdf.quantile(0.5), cdf.quantile(0.9),
                cdf.quantile(0.99), 100.0 * cdf.fraction_below(10'000));
  }

  std::printf("\nsampling check (100k samples each):\n");
  for (auto kind : workload::kAllKinds) {
    sim::Rng rng{42};
    const auto& cdf = workload::cdf(kind);
    double sum = 0;
    constexpr int kN = 100'000;
    for (int i = 0; i < kN; ++i) sum += static_cast<double>(cdf.sample(rng));
    std::printf("  %-6s analytic mean %.0f, sampled mean %.0f\n", workload::abbrev(kind),
                cdf.mean_bytes(), sum / kN);
  }

  std::printf("\nPoisson arrivals at load 0.5, 16 hosts x 10Gbps (Web Search):\n");
  sim::Rng rng{7};
  const auto& sizes = workload::cdf(workload::Kind::kWebSearch);
  workload::TrafficConfig traffic;
  traffic.load = 0.5;
  traffic.n_flows = 10;
  traffic.n_hosts = 16;
  const auto flows = workload::generate_traffic(workload::WorkloadSpec{}, &sizes, traffic, rng);
  const double gap_s = workload::mean_flow_gap_seconds(traffic, sizes.mean_bytes());
  std::printf("  mean inter-arrival: %s\n", sim::Duration::from_seconds(gap_s).str().c_str());
  for (const auto& f : flows) {
    std::printf("  flow %llu: host %zu -> %zu, %llu bytes at %s\n",
                static_cast<unsigned long long>(f.id), f.src_host, f.dst_host,
                static_cast<unsigned long long>(f.bytes), f.start.str().c_str());
  }
  return 0;
}
