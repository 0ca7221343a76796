// Macro-benchmark for the pooled network core: a three-tier fat-tree fabric
// (k=16 -> 1024 hosts, 320 switches by default) running the Section 8
// websearch workload under each receiver-driven transport. Reports raw event
// throughput (events/sec), packet throughput (delivered data packets/sec)
// and peak RSS, as google-benchmark-shaped JSON that
// tools/bench_compare.py --scale can diff across builds. Each row runs in
// its own child process, so its peak RSS is that row's alone.
//
//   bench_scale [--k N] [--transport amrt|phost|homa|ndp|all]
//               [--flows N] [--load F] [--shards N] [--repeat R]
//               [--fidelity packet|flow|both] [--json PATH] [--check]
//
// --shards N runs each transport on the pod-sharded executor with N worker
// threads, at most 256 (see net/partition.hpp; 1, the default, is the serial
// run of the same executor); --repeat R reports the median-of-R wall time.
// --fidelity flow runs the flow-level fast path
// (src/flowsim) on the same seeded workload; both emits a packet row and a
// "/flow"-suffixed row per transport, which is how the committed
// baselines/scale_k16_flow.json headroom figure is produced. --check
// shrinks the fabric (k=4, a few hundred flows) and exits non-zero unless
// every flow completes under every requested transport — the scale_smoke /
// shard_smoke ctests run exactly that in a few seconds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/factory.hpp"
#include "harness/fidelity.hpp"
#include "harness/options.hpp"
#include "harness/sharded.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "stats/fct.hpp"
#include "transport/endpoint.hpp"
#include "workload/traffic.hpp"
#include "workload/workloads.hpp"

using namespace amrt;

namespace {

struct Options {
  int k = 16;
  std::vector<transport::Protocol> protocols{
      transport::Protocol::kAmrt, transport::Protocol::kPhost, transport::Protocol::kHoma,
      transport::Protocol::kNdp};
  std::size_t flows = 2'000;
  double load = 0.5;
  std::uint64_t seed = 1;
  unsigned shards = 1;  // 1 = the serial run, at most sim::kMaxThreads
  int repeat = 1;       // median-of-R wall time
  std::string json_path;  // empty: stdout only when --json given
  bool check = false;
  bool run_packet = true;  // --fidelity packet|flow|both
  bool run_flow = false;
};

struct RunResult {
  std::string name;
  double real_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t delivered_pkts = 0;
  std::size_t flows = 0;
  std::size_t completed = 0;
  long peak_rss_kb = 0;
  unsigned shards = 1;
};

// This process's peak RSS: VmHWM from /proc/self/status, in KiB. getrusage's
// ru_maxrss is no substitute: Linux carries it across execve, so a bench
// started from a larger parent would report the parent's peak.
long peak_rss_kb() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

// One packet run on the pod-sharded executor; one shard is the serial run.
// The master shard carries opt.seed, so every shard count runs the same
// topology and flows.
RunResult run_one(const Options& opt, transport::Protocol proto) {
  sim::ShardGroup group{opt.seed, opt.shards};
  net::Network network{group.master()};

  net::FatTreeConfig topo_cfg;
  topo_cfg.k = opt.k;
  topo_cfg.queue_factory = core::make_queue_factory(proto);
  topo_cfg.marker_factory = core::make_marker_factory(proto);
  const net::FatTree topo = net::build_fat_tree(network, topo_cfg);
  harness::ShardedScenario scen{group, network, net::partition_fat_tree(network, topo, opt.shards),
                                topo_cfg.link_rate, topo.base_rtt};

  transport::TransportConfig tcfg;
  tcfg.host_rate = topo_cfg.link_rate;
  tcfg.base_rtt = topo.base_rtt;
  scen.attach_endpoints(topo.hosts, [&](sim::Simulation& home, net::Host& host,
                                        stats::FlowObserver* observer) {
    return core::make_endpoint(proto, home, host, tcfg, observer);
  });

  workload::TrafficConfig traffic;
  traffic.load = opt.load;
  traffic.n_flows = opt.flows;
  traffic.n_hosts = topo.hosts.size();
  traffic.host_rate = topo_cfg.link_rate;
  const auto flows = workload::generate_traffic(
      workload::WorkloadSpec{}, &workload::cdf(workload::Kind::kWebSearch), traffic,
      group.master().rng());
  scen.schedule_starts(flows);

  const auto t0 = std::chrono::steady_clock::now();
  scen.run({});  // natural drain: no samplers keep the loop alive
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.name = std::string{"BM_Scale/fattree_k"} + std::to_string(opt.k) + "/" +
           transport::to_string(proto);
  r.real_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = scen.events();
  r.delivered_pkts = scen.merged().bytes_delivered() / net::kMssBytes;
  r.flows = flows.size();
  r.completed = scen.merged().completed().size();
  r.peak_rss_kb = peak_rss_kb();
  r.shards = opt.shards;
  return r;
}

// The flow-level fast path (src/flowsim) on the same seeded workload; the
// "/flow" row name keeps packet and fluid rows side by side in one JSON so
// tools/bench_compare.py --scale can diff either against a baseline.
RunResult run_one_flow(const Options& opt, transport::Protocol proto) {
  const auto t0 = std::chrono::steady_clock::now();
  const harness::FlowFatTreeResult f =
      harness::run_fat_tree_flow(opt.k, proto, opt.flows, opt.load, opt.seed);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.name = std::string{"BM_Scale/fattree_k"} + std::to_string(opt.k) + "/" +
           transport::to_string(proto) + "/flow";
  r.real_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = f.events;
  r.delivered_pkts = f.delivered_bytes / net::kMssBytes;
  r.flows = f.flows;
  r.completed = f.completed;
  r.peak_rss_kb = peak_rss_kb();
  return r;
}

// Median-of-R by wall time (the simulation itself is deterministic per
// mode, so only timing varies across repeats).
RunResult run_repeated_here(const Options& opt, transport::Protocol proto, bool flow_fidelity) {
  std::vector<RunResult> runs;
  const int reps = opt.repeat;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    runs.push_back(flow_fidelity ? run_one_flow(opt, proto) : run_one(opt, proto));
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunResult& a, const RunResult& b) { return a.real_ms < b.real_ms; });
  return runs[static_cast<std::size_t>(reps - 1) / 2];
}

// The fields of a RunResult as they cross the pipe from the child.
struct WireResult {
  char name[96];
  double real_ms;
  std::uint64_t events;
  std::uint64_t delivered_pkts;
  std::size_t flows;
  std::size_t completed;
  long peak_rss_kb;
  unsigned shards;
};

// Runs one row in a forked child, so its peak_rss_mb (the child's VmHWM) is
// that transport's peak alone. In one process VmHWM never falls, and every
// row after the first would carry the largest earlier transport's peak. The
// parent builds no simulation, so what a child inherits is a few MB.
RunResult run_repeated(const Options& opt, transport::Protocol proto, bool flow_fidelity) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("bench_scale: pipe");
    std::exit(1);
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("bench_scale: fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::close(fds[0]);
    const RunResult r = run_repeated_here(opt, proto, flow_fidelity);
    WireResult w{};
    std::snprintf(w.name, sizeof w.name, "%s", r.name.c_str());
    w.real_ms = r.real_ms;
    w.events = r.events;
    w.delivered_pkts = r.delivered_pkts;
    w.flows = r.flows;
    w.completed = r.completed;
    w.peak_rss_kb = r.peak_rss_kb;
    w.shards = r.shards;
    const bool sent = ::write(fds[1], &w, sizeof w) == static_cast<ssize_t>(sizeof w);
    std::fflush(nullptr);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  WireResult w{};
  std::size_t got = 0;
  while (got < sizeof w) {
    const ssize_t n = ::read(fds[0], reinterpret_cast<char*>(&w) + got, sizeof w - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (got != sizeof w || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_scale: the %s run failed\n", transport::to_string(proto));
    std::exit(1);
  }
  RunResult r;
  r.name = w.name;
  r.real_ms = w.real_ms;
  r.events = w.events;
  r.delivered_pkts = w.delivered_pkts;
  r.flows = w.flows;
  r.completed = w.completed;
  r.peak_rss_kb = w.peak_rss_kb;
  r.shards = w.shards;
  return r;
}

void print_json(std::FILE* out, const Options& opt, const std::vector<RunResult>& results) {
  std::fprintf(out,
               "{\n  \"context\": {\"k\": %d, \"flows\": %zu, \"load\": %.3f, \"shards\": %u, "
               "\"repeat\": %d},\n",
               opt.k, opt.flows, opt.load, opt.shards, opt.repeat);
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const double secs = r.real_ms / 1e3;
    const double eps = secs > 0 ? static_cast<double>(r.events) / secs : 0.0;
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"run_type\": \"iteration\", \"iterations\": 1,\n"
                 "     \"real_time\": %.3f, \"cpu_time\": %.3f, \"time_unit\": \"ms\",\n"
                 "     \"shards\": %u, \"wall_ms\": %.3f,\n"
                 "     \"events\": %llu, \"events_per_second\": %.0f,\n"
                 "     \"events_per_second_per_shard\": %.0f,\n"
                 "     \"delivered_pkts\": %llu, \"delivered_pkts_per_second\": %.0f,\n"
                 "     \"flows\": %zu, \"completed\": %zu, \"peak_rss_mb\": %.1f}%s\n",
                 r.name.c_str(), r.real_ms, r.real_ms, r.shards, r.real_ms,
                 static_cast<unsigned long long>(r.events), eps,
                 eps / static_cast<double>(r.shards == 0 ? 1 : r.shards),
                 static_cast<unsigned long long>(r.delivered_pkts),
                 secs > 0 ? static_cast<double>(r.delivered_pkts) / secs : 0.0, r.flows,
                 r.completed, static_cast<double>(r.peak_rss_kb) / 1024.0,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

// A numeric flag value, parsed as one whole token in [lo, hi]; a malformed
// or out-of-range one exits 2.
template <typename T>
T num(const char* flag, const char* text, T lo = std::numeric_limits<T>::lowest(),
      T hi = std::numeric_limits<T>::max()) {
  return harness::parse_number_or_exit<T>("bench_scale", flag, text, lo, hi);
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--k N] [--transport amrt|phost|homa|ndp|all] [--flows N]\n"
               "          [--load F] [--seed N] [--shards N] [--repeat R]\n"
               "          [--fidelity packet|flow|both] [--json PATH] [--check]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--k") {
      opt.k = num<int>("--k", next());
    } else if (arg == "--transport") {
      const std::string v = next();
      if (v != "all") opt.protocols = {transport::protocol_from_string(v)};
    } else if (arg == "--flows") {
      opt.flows = num<std::size_t>("--flows", next());
    } else if (arg == "--load") {
      opt.load = num<double>("--load", next());
    } else if (arg == "--seed") {
      opt.seed = num<std::uint64_t>("--seed", next());
    } else if (arg == "--shards") {
      opt.shards = num<unsigned>("--shards", next(), 1, sim::kMaxThreads);
    } else if (arg == "--repeat") {
      opt.repeat = num<int>("--repeat", next(), 1);
    } else if (arg == "--fidelity") {
      const std::string v = next();
      if (v == "packet") {
        opt.run_packet = true;
        opt.run_flow = false;
      } else if (v == "flow") {
        opt.run_packet = false;
        opt.run_flow = true;
      } else if (v == "both") {
        opt.run_packet = true;
        opt.run_flow = true;
      } else {
        std::fprintf(stderr, "bench_scale: --fidelity must be packet, flow or both\n");
        return 2;
      }
    } else if (arg == "--json") {
      opt.json_path = next();
    } else if (arg == "--check") {
      opt.check = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (opt.check) {
    opt.k = 4;
    opt.flows = 400;
  }

  std::vector<RunResult> results;
  bool ok = true;
  auto report = [&](const RunResult& r) {
    std::fprintf(stderr,
                 "%-28s %9.1f ms  %12llu events (%.2fM ev/s, %u shard%s)  %9llu pkts  "
                 "%zu/%zu flows  rss %.1f MB\n",
                 r.name.c_str(), r.real_ms, static_cast<unsigned long long>(r.events),
                 r.real_ms > 0 ? static_cast<double>(r.events) / r.real_ms / 1e3 : 0.0,
                 r.shards, r.shards == 1 ? "" : "s",
                 static_cast<unsigned long long>(r.delivered_pkts), r.completed, r.flows,
                 static_cast<double>(r.peak_rss_kb) / 1024.0);
    if (r.completed != r.flows) {
      std::fprintf(stderr, "FAIL: %s completed only %zu of %zu flows\n", r.name.c_str(),
                   r.completed, r.flows);
      ok = false;
    }
    results.push_back(r);
  };
  for (const auto proto : opt.protocols) {
    if (opt.run_packet) report(run_repeated(opt, proto, false));
    if (opt.run_flow) report(run_repeated(opt, proto, true));
  }

  if (!opt.json_path.empty()) {
    if (opt.json_path == "-") {
      print_json(stdout, opt, results);
    } else {
      std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
      if (f == nullptr) {
        std::perror("bench_scale: fopen");
        return 1;
      }
      print_json(f, opt, results);
      std::fclose(f);
    }
  }
  return ok ? 0 : 1;
}
