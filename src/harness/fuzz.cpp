#include "harness/fuzz.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "audit/auditor.hpp"
#include "core/factory.hpp"
#include "fault/fault.hpp"
#include "harness/experiment.hpp"
#include "harness/sharded.hpp"
#include "harness/sweep.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "stats/fct.hpp"
#include "stats/group.hpp"
#include "workload/traffic.hpp"
#include "workload/workloads.hpp"

namespace amrt::harness::fuzz {

namespace {

using transport::Protocol;

// Splitmix-style finalizer: one seed, salted per (topo, protocol), yields
// independent parameter streams so `--seed 7 --topo chain --transport ndp`
// shares nothing with the same seed on another axis.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t case_salt(const CaseConfig& c) {
  return (static_cast<std::uint64_t>(c.topo) << 8) | static_cast<std::uint64_t>(c.proto) |
         (c.mixed ? (1ULL << 16) : 0ULL) | (c.engine ? (1ULL << 17) : 0ULL);
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
};

// Everything a case draws before the simulation starts.
struct CaseParams {
  // Fabric.
  int leaves = 2, spines = 1, hosts_per_leaf = 2;  // leaf-spine
  int left_hosts = 2, right_hosts = 2;             // dumbbell
  int chain_switches = 2, hosts_per_switch = 1;    // chain
  int fat_k = 4;                                   // fat-tree
  sim::Bandwidth link_rate = sim::Bandwidth::gbps(10);
  sim::Duration link_delay = sim::Duration::microseconds(10);
  core::QueueConfig queues;
  // Traffic.
  workload::Kind workload = workload::Kind::kWebSearch;
  double load = 0.5;
  std::size_t n_flows = 16;
  // Mixed cases only: fraction of flows (by id residue) that run DCTCP.
  double background_fraction = 0.0;
  // Engine cases only: drawn traffic-engine spec; the default is the legacy
  // engine, which generates draw-for-draw like the old FlowGenerator.
  workload::WorkloadSpec spec{};
};

CaseParams draw_params(const CaseConfig& c, sim::Rng& rng) {
  CaseParams p;
  p.leaves = static_cast<int>(rng.uniform_int(2, 3));
  p.spines = static_cast<int>(rng.uniform_int(1, 2));
  p.hosts_per_leaf = static_cast<int>(rng.uniform_int(2, 4));
  p.left_hosts = static_cast<int>(rng.uniform_int(2, 5));
  p.right_hosts = static_cast<int>(rng.uniform_int(2, 5));
  p.chain_switches = static_cast<int>(rng.uniform_int(2, 4));
  p.hosts_per_switch = static_cast<int>(rng.uniform_int(1, 2));

  static constexpr int kRates[] = {10, 25, 40};
  p.link_rate = sim::Bandwidth::gbps(kRates[rng.index(3)]);
  p.link_delay = sim::Duration::microseconds(rng.uniform_int(1, 50));

  static constexpr std::size_t kBuffers[] = {8, 16, 32, 64, 128};
  p.queues.buffer_pkts = kBuffers[rng.index(5)];
  static constexpr std::size_t kTrim[] = {4, 8, 16};
  p.queues.trim_threshold = kTrim[rng.index(3)];
  // AMRT's selective-drop discipline is an orthogonal switch feature; flip
  // it per case so both admission paths get fuzzed.
  p.queues.selective_drop = c.proto == Protocol::kAmrt && rng.bernoulli(0.5);

  p.workload = workload::kAllKinds[rng.index(workload::kAllKinds.size())];
  p.load = rng.uniform(0.3, 0.8);
  p.n_flows = static_cast<std::size_t>(rng.uniform_int(8, 40));
  // Drawn last so the older topologies' parameter streams are unchanged.
  p.fat_k = rng.bernoulli(0.5) ? 6 : 4;
  // Mixed-only draw, strictly after every single-transport draw: non-mixed
  // cases consume exactly the old stream.
  if (c.mixed) p.background_fraction = rng.uniform(0.2, 0.7);
  // Engine-only draws, strictly after everything above (including the mixed
  // draw): non-engine cases consume exactly the old stream.
  if (c.engine) {
    if (rng.bernoulli(0.5)) {
      p.spec.engine = workload::Engine::kSkewed;
      p.spec.pairs = rng.bernoulli(0.5) ? workload::PairModel::kHotRack
                                        : workload::PairModel::kPermutation;
      p.spec.arrivals = rng.bernoulli(0.5) ? workload::ArrivalModel::kPoisson
                                           : workload::ArrivalModel::kFixedRate;
      p.spec.skew.hosts_per_rack = static_cast<std::size_t>(rng.uniform_int(2, 4));
      p.spec.skew.hot_rack_fraction = rng.uniform(0.2, 0.6);
      p.spec.skew.hot_weight = rng.uniform(0.5, 0.9);
      p.spec.skew.locality = rng.uniform(0.1, 0.5);
      if (rng.bernoulli(0.5)) {
        p.spec.coflow_fraction = rng.uniform(0.1, 0.4);
        p.spec.coflow_width = static_cast<std::size_t>(rng.uniform_int(2, 4));
      }
    } else {
      p.spec.engine = workload::Engine::kFanout;
      p.spec.fanout = static_cast<std::size_t>(rng.uniform_int(2, 6));
      p.spec.response_bytes = rng.bernoulli(0.5) ? rng.uniform_int(2'000, 40'000) : 0;
    }
  }
  return p;
}

// Factory selection shared by the four topology builders: mixed cases get
// the strict-priority fabric with both ECN markers; everything else keeps
// the per-protocol factories bit-for-bit.
net::QueueFactory case_queue_factory(const CaseConfig& c, const CaseParams& p) {
  return c.mixed ? core::make_mixed_queue_factory(p.queues)
                 : core::make_queue_factory(c.proto, p.queues);
}

net::MarkerFactory case_marker_factory(const CaseConfig& c, const CaseParams& p) {
  return c.mixed ? core::make_mixed_marker_factory(p.queues) : core::make_marker_factory(c.proto);
}

// A built fabric ready to run: its hosts, the base RTT the transports are
// configured with, and its partition over the case's shards.
struct Scenario {
  std::vector<net::Host*> hosts;
  sim::Duration base_rtt = sim::Duration::zero();
  net::Partition part;
};

// The small dumbbell/chain fabrics have no useful cut: every node on the
// one shard (validate() keeps them off sharded cases).
net::Partition one_shard(const net::Network& network) {
  return net::make_partition(
      network, std::vector<std::uint32_t>(network.host_count() + network.switch_count(), 0), 1);
}

Scenario build_leaf_spine_case(net::Network& network, const CaseConfig& c, const CaseParams& p) {
  net::LeafSpineConfig topo_cfg;
  topo_cfg.leaves = p.leaves;
  topo_cfg.spines = p.spines;
  topo_cfg.hosts_per_leaf = p.hosts_per_leaf;
  topo_cfg.link_rate = p.link_rate;
  topo_cfg.link_delay = p.link_delay;
  topo_cfg.host_nic_queue_pkts = p.queues.host_nic_pkts;
  topo_cfg.queue_factory = case_queue_factory(c, p);
  topo_cfg.marker_factory = case_marker_factory(c, p);
  net::LeafSpine topo = net::build_leaf_spine(network, topo_cfg);
  return Scenario{topo.hosts, topo.base_rtt,
                  net::partition_leaf_spine(network, topo, c.shards)};
}

Scenario build_dumbbell_case(net::Network& network, const CaseConfig& c, const CaseParams& p) {
  auto qf = case_queue_factory(c, p);
  auto mf = case_marker_factory(c, p);
  auto marker = [&]() -> std::unique_ptr<net::DequeueMarker> { return mf ? mf() : nullptr; };
  const auto rate = p.link_rate;
  const auto delay = p.link_delay;

  const net::SwitchId left = network.add_switch();
  const net::SwitchId right = network.add_switch();
  const net::PortId l_to_r =
      network.add_switch_port(left, network.id_of(right), rate, delay, qf(false), marker());
  const net::PortId r_to_l =
      network.add_switch_port(right, network.id_of(left), rate, delay, qf(false), marker());

  std::vector<net::HostId> hosts;
  auto attach = [&](net::SwitchId sw, net::SwitchId far, net::PortId far_port, int count) {
    for (int i = 0; i < count; ++i) {
      const net::HostId host = network.add_host(
          rate, delay, net::EgressQueue::drop_tail(p.queues.host_nic_pkts));
      const net::PortId down = network.attach_host(host, sw, qf(false), marker());
      network.switch_at(sw).routes().add_route(network.id_of(host), down);
      network.switch_at(far).routes().add_route(network.id_of(host), far_port);
      hosts.push_back(host);
    }
  };
  attach(left, right, r_to_l, p.left_hosts);
  attach(right, left, l_to_r, p.right_hosts);
  for (const net::HostId h : hosts) {
    network.switch_at(left).routes().require_route(network.id_of(h));
    network.switch_at(right).routes().require_route(network.id_of(h));
  }
  Scenario s;
  for (const net::HostId h : hosts) s.hosts.push_back(&network.host(h));
  // host -> ToR -> ToR -> host: three store-and-forward links.
  s.base_rtt = net::path_base_rtt(3, rate, delay);
  s.part = one_shard(network);
  return s;
}

Scenario build_chain_case(net::Network& network, const CaseConfig& c, const CaseParams& p) {
  auto qf = case_queue_factory(c, p);
  auto mf = case_marker_factory(c, p);
  auto marker = [&]() -> std::unique_ptr<net::DequeueMarker> { return mf ? mf() : nullptr; };
  const auto rate = p.link_rate;
  const auto delay = p.link_delay;
  const int k = p.chain_switches;

  std::vector<net::SwitchId> switches;
  for (int i = 0; i < k; ++i) switches.push_back(network.add_switch());
  // right_port[i]: switch i -> i+1; left_port[i]: switch i -> i-1.
  std::vector<net::PortId> right_port(static_cast<std::size_t>(k), -1);
  std::vector<net::PortId> left_port(static_cast<std::size_t>(k), -1);
  for (int i = 0; i + 1 < k; ++i) {
    right_port[i] = network.add_switch_port(switches[i], network.id_of(switches[i + 1]), rate,
                                            delay, qf(false), marker());
    left_port[i + 1] = network.add_switch_port(switches[i + 1], network.id_of(switches[i]), rate,
                                               delay, qf(false), marker());
  }

  std::vector<net::HostId> hosts;
  std::vector<int> host_at;  // host index -> switch index
  for (int i = 0; i < k; ++i) {
    for (int h = 0; h < p.hosts_per_switch; ++h) {
      const net::HostId host = network.add_host(
          rate, delay, net::EgressQueue::drop_tail(p.queues.host_nic_pkts));
      const net::PortId down = network.attach_host(host, switches[i], qf(false), marker());
      network.switch_at(switches[i]).routes().add_route(network.id_of(host), down);
      hosts.push_back(host);
      host_at.push_back(i);
    }
  }
  // Linear routing: every switch reaches every host by walking the chain.
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const int at = host_at[h];
    const net::NodeId dst = network.id_of(hosts[h]);
    for (int i = 0; i < k; ++i) {
      if (i == at) continue;
      network.switch_at(switches[i]).routes().add_route(dst, i < at ? right_port[i] : left_port[i]);
    }
    for (int i = 0; i < k; ++i) network.switch_at(switches[i]).routes().require_route(dst);
  }
  Scenario s;
  for (const net::HostId h : hosts) s.hosts.push_back(&network.host(h));
  // Worst case: end to end across all k switches, k+1 links.
  s.base_rtt = net::path_base_rtt(k + 1, rate, delay);
  s.part = one_shard(network);
  return s;
}

Scenario build_fat_tree_case(net::Network& network, const CaseConfig& c, const CaseParams& p) {
  net::FatTreeConfig topo_cfg;
  topo_cfg.k = p.fat_k;
  topo_cfg.link_rate = p.link_rate;
  topo_cfg.link_delay = p.link_delay;
  topo_cfg.host_nic_queue_pkts = p.queues.host_nic_pkts;
  topo_cfg.queue_factory = case_queue_factory(c, p);
  topo_cfg.marker_factory = case_marker_factory(c, p);
  net::FatTree topo = net::build_fat_tree(network, topo_cfg);
  return Scenario{topo.hosts, topo.base_rtt, net::partition_fat_tree(network, topo, c.shards)};
}

Scenario build_case(net::Network& network, const CaseConfig& c, const CaseParams& p) {
  switch (c.topo) {
    case Topo::kLeafSpine:
      return build_leaf_spine_case(network, c, p);
    case Topo::kDumbbell:
      return build_dumbbell_case(network, c, p);
    case Topo::kChain:
      return build_chain_case(network, c, p);
    case Topo::kFatTree:
      return build_fat_tree_case(network, c, p);
  }
  throw std::logic_error("fuzz: unknown topology");
}

// Draws a bounded fault schedule against the built fabric's switch egress
// ports. Called after build_case with the same parameter stream, so these
// draws sit strictly after every pre-existing one (replay contract: cases
// with faults off consume exactly the old stream). All windows are bounded
// multiples of the topology's base RTT — long enough to force every
// backstop in DESIGN.md §11, short enough that completion stays provable.
fault::FaultPlan draw_fault_plan(const CaseConfig& c, const net::Network& network,
                                 sim::Duration base_rtt, sim::Rng& rng) {
  fault::FaultPlan plan;
  plan.seed = mix(c.seed, case_salt(c) ^ 0xFA17ULL);

  // Only switch-owned egress ports fault: host NICs are the measurement
  // reference point (the FCT floor oracle assumes the sender serializes at
  // its configured rate at least once).
  std::vector<net::PortId> eligible;
  for (const auto& sw : network.switches()) {
    for (int i = 0; i < sw.port_count(); ++i) eligible.push_back(sw.port_id(i));
  }
  if (eligible.empty()) return plan;

  const auto incidents = rng.uniform_int(1, 4);
  plan.draw(rng, eligible, base_rtt, incidents);
  return plan;
}

// Livelock valve: typical cases finish in well under 10^5 events, and the
// worst observed legitimate case (deep loss recovery with 8-packet buffers
// under timeout backoff) converges around 6x10^6, so an order of magnitude
// above that separates "slow recovery" from a genuinely stuck event loop,
// which is reported as a failure instead of hanging the fuzzer.
constexpr std::uint64_t kEventLimit = 50'000'000;

// Oracles 1-4 plus the replay fingerprint, over the merged per-shard
// recorder and the master auditor (which holds the folded cross-shard ledger
// after a sharded run). Expects r.flows / r.completed / r.events / r.faulted
// to be set already.
void check_oracles(CaseResult& r, const stats::FctRecorder& recorder, net::Network& network,
                   const Scenario& scen, const CaseParams& params, audit::Auditor& auditor) {
  auto fail = [&r](std::string why) {
    if (r.ok) {
      r.ok = false;
      r.failure = std::move(why);
    }
  };

  // Oracle 1: completion (an event-limit hit shows up here as livelock).
  if (r.completed < r.flows) {
    fail("incomplete: " + std::to_string(r.flows - r.completed) + " of " +
         std::to_string(r.flows) + " flows unfinished" +
         (r.events >= kEventLimit ? " (event limit hit)" : ""));
  }
  // Oracle 2: physics. Payload must serialize through the sender NIC and
  // cross at least one propagation delay; queueing/loss only adds to that.
  for (const auto& rec : recorder.completed()) {
    const sim::Duration floor =
        params.link_rate.tx_time(static_cast<std::int64_t>(rec.bytes)) + params.link_delay;
    if (rec.fct() < floor) {
      fail("fct below serialization floor: flow " + std::to_string(rec.flow) + " fct " +
           rec.fct().str() + " < " + floor.str());
      break;
    }
  }

  // Oracle 3: queue accounting at drain, on every switch port and host NIC.
  auto check_queue = [&](const net::EgressQueue& q, const std::string& where) {
    const auto& st = q.stats();
    if (q.total_pkts() != 0) {
      fail(where + ": " + std::to_string(q.total_pkts()) + " packets stranded after drain");
    } else if (st.enqueued != st.dequeued + st.dropped) {
      fail(where + ": stats identity broken: enqueued " + std::to_string(st.enqueued) +
           " != dequeued " + std::to_string(st.dequeued) + " + dropped " +
           std::to_string(st.dropped));
    }
    r.drops += st.dropped;
    r.trims += st.trimmed;
  };
  for (const auto& sw : network.switches()) {
    for (int i = 0; i < sw.port_count(); ++i) {
      check_queue(sw.port(i).queue(), network.label(sw.id()) + " port " + std::to_string(i));
    }
  }
  for (net::Host* host : scen.hosts) {
    check_queue(host->nic().queue(), network.label(host->id()) + " nic");
  }

  // Oracle 4 (audit builds; all calls are no-op stubs otherwise): the
  // conservation ledger must be drained and nothing may have tripped.
  auditor.check_drained();
  r.audit_violations = auditor.violation_count();
  if (r.audit_violations != 0) {
    fail("audit: " + auditor.violations().front());
  }

  // Fingerprint, for replay/parallel bit-identity checks.
  Fnv fnv;
  fnv.add(r.flows);
  for (const auto& rec : recorder.completed()) {
    fnv.add(rec.flow);
    fnv.add(rec.bytes);
    fnv.add(static_cast<std::uint64_t>(rec.start.ns()));
    fnv.add(static_cast<std::uint64_t>(rec.end.ns()));
  }
  fnv.add(r.drops);
  fnv.add(r.trims);
  fnv.add(r.events);
  fnv.add(r.faulted);
  r.hash = fnv.h;
}

// Oracle 5 (engine cases): group accounting. If every flow completed, every
// coflow group and every fan-out request must be complete in the GroupBook —
// a mismatch means membership bookkeeping lost or double-counted a member.
void check_group_oracle(CaseResult& r, const std::vector<workload::GeneratedFlow>& flows,
                        const stats::FctRecorder& recorder) {
  stats::GroupBook book;
  for (const auto& f : flows) book.note(f.id, f.group_id, f.request_id);
  if (book.empty() || r.completed < r.flows) return;
  const stats::GroupStats gs = book.group_stats(recorder.completed());
  const stats::GroupStats qs = book.request_stats(recorder.completed());
  auto fail = [&r](std::string why) {
    if (r.ok) {
      r.ok = false;
      r.failure = std::move(why);
    }
  };
  if (gs.complete != gs.groups) {
    fail("group accounting: " + std::to_string(gs.complete) + " of " + std::to_string(gs.groups) +
         " groups complete though every flow finished");
  }
  if (qs.complete != qs.groups) {
    fail("request accounting: " + std::to_string(qs.complete) + " of " + std::to_string(qs.groups) +
         " requests complete though every flow finished");
  }
}

}  // namespace

const char* to_string(Topo t) {
  switch (t) {
    case Topo::kLeafSpine:
      return "leafspine";
    case Topo::kDumbbell:
      return "dumbbell";
    case Topo::kChain:
      return "chain";
    case Topo::kFatTree:
      return "fattree";
  }
  return "?";
}

Topo topo_from_string(const std::string& s) {
  if (s == "leafspine" || s == "leaf-spine" || s == "ls") return Topo::kLeafSpine;
  if (s == "dumbbell" || s == "db") return Topo::kDumbbell;
  if (s == "chain") return Topo::kChain;
  if (s == "fattree" || s == "fat-tree" || s == "ft") return Topo::kFatTree;
  throw std::invalid_argument("unknown topology: " + s);
}

std::string repro_line(const CaseConfig& c) {
  return std::string{"scenario_fuzz --seed "} + std::to_string(c.seed) + " --topo " +
         to_string(c.topo) + " --transport " + transport::to_string(c.proto) +
         (c.faults ? " --faults" : "") +
         (c.shards > 1 ? " --shards " + std::to_string(c.shards) : "") +
         (c.mixed ? " --mixed" : "") + (c.engine ? " --workload-engine" : "");
}

void validate(const CaseConfig& c) {
  auto reject = [](const std::string& why) { throw std::invalid_argument(why); };
  if (c.shards == 0 || c.shards > sim::kMaxThreads) {
    reject("--shards must be in [1, " + std::to_string(sim::kMaxThreads) + "]");
  }
  if (c.mixed && c.proto != Protocol::kAmrt) {
    reject("--mixed requires --transport amrt (the foreground transport is fixed; DCTCP "
           "rides as background)");
  }
  if (c.shards == 1) return;
  if (c.faults) {
    reject("--faults and --shards are mutually exclusive (fault injection mutates link "
           "state serially)");
  }
  if (c.mixed) {
    reject("--mixed and --shards are mutually exclusive (mixed transports are serial-only)");
  }
  if (c.topo != Topo::kFatTree && c.topo != Topo::kLeafSpine) {
    reject(std::string{"--shards does not support topology "} + to_string(c.topo));
  }
}

CaseResult run_case(const CaseConfig& c) {
  // A fail-fast audit abort anywhere below prints this line.
  audit::set_context(repro_line(c));
  validate(c);

  sim::Rng draw{mix(c.seed, case_salt(c))};
  const CaseParams params = draw_params(c, draw);

  // One shard is the serial run: the master carries this seed unchanged.
  sim::ShardGroup group{mix(c.seed, case_salt(c) ^ 0xA5A5ULL), c.shards};
  net::Network network{group.master()};
  Scenario built = build_case(network, c, params);
  ShardedScenario scen{group, network, std::move(built.part), params.link_rate, built.base_rtt};

  // Fault schedule: drawn after the topology (it needs the built port pool),
  // armed before the run. The injector owns the plan the scheduled
  // callbacks read, so it must outlive scen.run() below.
  std::unique_ptr<fault::FaultInjector> injector;
  if (c.faults) {
    injector = std::make_unique<fault::FaultInjector>(
        network, draw_fault_plan(c, network, built.base_rtt, draw));
    injector->arm();
  }

  transport::TransportConfig tcfg;
  tcfg.host_rate = params.link_rate;
  tcfg.base_rtt = built.base_rtt;
  const double bg_fraction = params.background_fraction;
  scen.attach_endpoints(built.hosts, [&](sim::Simulation& home, net::Host& host,
                                         stats::FlowObserver* observer) {
    if (!c.mixed) return core::make_endpoint(c.proto, home, host, tcfg, observer);
    return core::make_mixed_endpoint(home, host, tcfg, observer, [bg_fraction](net::FlowId id) {
      return is_background_flow(id, bg_fraction);
    });
  });

  workload::TrafficConfig traffic;
  traffic.load = params.load;
  traffic.n_flows = params.n_flows;
  traffic.n_hosts = built.hosts.size();
  traffic.host_rate = params.link_rate;
  const auto flows = workload::generate_traffic(params.spec, &workload::cdf(params.workload),
                                                traffic, group.master().rng());
  scen.schedule_starts(flows);

  // No samplers and no polling: once the last flow completes, recovery
  // timers cancel and the event set empties, so the run ends at drain.
  ShardedScenario::RunLimits limits;
  limits.event_limit = kEventLimit;
  limits.audit_context = repro_line(c);
  scen.run(limits);

  CaseResult r;
  r.flows = flows.size();
  r.completed = scen.merged().completed().size();
  r.events = scen.events();
  r.faulted = network.packets_faulted();
  check_oracles(r, scen.merged(), network, built, params, group.master().auditor());
  check_group_oracle(r, flows, scen.merged());
  return r;
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
  std::vector<CaseConfig> cases;
  cases.reserve(opts.topos.size() * opts.protocols.size() * opts.seeds);
  for (const Topo topo : opts.topos) {
    // Partitioned sweeps cover only the topologies that have a pod/leaf cut;
    // the tiny dumbbell/chain fabrics are silently skipped rather than
    // forcing every caller to trim the default topology list.
    if (opts.shards > 1 && topo != Topo::kFatTree && topo != Topo::kLeafSpine) continue;
    for (const Protocol proto : opts.protocols) {
      // Mixed sweeps fix the foreground transport: only the AMRT axis runs.
      if (opts.mixed && proto != Protocol::kAmrt) continue;
      for (std::uint64_t s = 0; s < opts.seeds; ++s) {
        cases.push_back(CaseConfig{opts.first_seed + s, topo, proto, opts.faults, opts.shards,
                                   opts.mixed, opts.engine});
      }
    }
  }

  SweepOptions sweep_opts;
  sweep_opts.threads = opts.threads;
  SweepRunner runner{sweep_opts};
  const auto results = runner.map_points(cases, [](const CaseConfig& c) { return run_case(c); });

  FuzzReport report;
  report.cases = cases.size();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (opts.on_case) opts.on_case(cases[i], results[i]);
    if (!results[i].ok) {
      ++report.failures;
      report.failure_lines.push_back(repro_line(cases[i]) + "  # " + results[i].failure);
    }
  }
  return report;
}

}  // namespace amrt::harness::fuzz
