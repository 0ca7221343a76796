#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>

#include "fault/fault.hpp"
#include "harness/fidelity.hpp"
#include "harness/sharded.hpp"
#include "net/monitor.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "stats/summary.hpp"
#include "workload/flow_trace.hpp"
#include "workload/traffic.hpp"

namespace amrt::harness {

void write_fct_csv(std::ostream& os, const std::vector<stats::FlowRecord>& records) {
  os << "flow,bytes,start_us,end_us,fct_us,group_id,request_id\n";
  for (const auto& r : records) {
    os << r.flow << ',' << r.bytes << ',' << r.start.to_micros() << ',' << r.end.to_micros()
       << ',' << r.fct().to_micros() << ',';
    // Ungrouped flows get empty cells, not zeros: consumers that treat the
    // column as an id shouldn't see a phantom group 0.
    if (r.group != 0) os << r.group;
    os << ',';
    if (r.request != 0) os << r.request;
    os << '\n';
  }
}

const char* to_string(Fidelity f) {
  switch (f) {
    case Fidelity::kPacket: return "packet";
    case Fidelity::kFlow: return "flow";
    case Fidelity::kMixed: return "mixed";
  }
  return "?";
}

Fidelity fidelity_from_string(const std::string& name) {
  if (name == "packet") return Fidelity::kPacket;
  if (name == "flow") return Fidelity::kFlow;
  if (name == "mixed") return Fidelity::kMixed;
  throw std::invalid_argument("unknown fidelity '" + name + "' (packet|flow|mixed)");
}

bool is_background_flow(net::FlowId id, double fraction) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  const auto cut = static_cast<net::FlowId>(fraction * 100.0 + 0.5);
  return (id % 100) < cut;
}

stats::FctSummary summarize_records(const std::vector<stats::FlowRecord>& records) {
  stats::FctSummary out;
  out.started = records.size();
  out.completed = records.size();
  if (records.empty()) return out;
  std::vector<double> fcts;
  fcts.reserve(records.size());
  double sum = 0.0;
  for (const auto& r : records) {
    const double fct_us = r.fct().to_micros();
    fcts.push_back(fct_us);
    sum += fct_us;
    out.max_fct_us = std::max(out.max_fct_us, fct_us);
  }
  out.afct_us = sum / static_cast<double>(fcts.size());
  out.p50_us = stats::percentile(fcts, 0.50);
  out.p99_us = stats::percentile(fcts, 0.99);
  return out;
}

namespace {
// Per-port mean utilization restricted to the port's own active window, so
// a downlink that only carried traffic for 2ms of a 50ms run is judged on
// those 2ms (this is the "bottleneck utilization" of Fig. 13). Also returns
// the bytes the port moved, used as the weight when averaging across ports:
// a downlink that served one tiny RPC should not dilute the busy ones where
// the protocols actually differ.
struct PortUtilization {
  double utilization = -1.0;  // -1: never active
  double weight_bytes = 0.0;
};

PortUtilization active_window_utilization(const net::PortSampler& sampler) {
  const auto& samples = sampler.samples();
  std::size_t first = samples.size();
  std::size_t last = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].utilization > 0.0) {
      first = std::min(first, i);
      last = i;
    }
  }
  if (first >= samples.size()) return {};
  double sum = 0.0;
  for (std::size_t i = first; i <= last; ++i) sum += samples[i].utilization;
  return PortUtilization{sum / static_cast<double>(last - first + 1),
                         static_cast<double>(samples[last].bytes_sent)};
}
// Annotates records with membership and fills the collective summaries.
void finish_group_stats(const stats::GroupBook& book, ExperimentResult& out) {
  if (book.empty()) return;
  book.annotate(out.flow_records);
  out.group_stats = book.group_stats(out.flow_records);
  out.request_stats = book.request_stats(out.flow_records);
}

}  // namespace

namespace detail {

// Generation, shared by the packet and flow-level paths: run the
// configured traffic engine against the run's seeded stream, optionally dump
// the schedule as a replayable trace, and register group/request membership.
std::vector<workload::GeneratedFlow> generate_flows(const ExperimentConfig& cfg,
                                                    std::size_t n_hosts, sim::Rng& rng,
                                                    stats::GroupBook& book) {
  workload::TrafficConfig traffic;
  traffic.load = cfg.load;
  traffic.n_flows = cfg.n_flows;
  traffic.n_hosts = n_hosts;
  traffic.host_rate = cfg.link_rate;
  const workload::EmpiricalCdf* sizes =
      cfg.engine.engine == workload::Engine::kTrace ? nullptr : &workload::cdf(cfg.workload);
  auto flows = workload::generate_traffic(cfg.engine, sizes, traffic, rng);
  if (!cfg.trace_out.empty()) workload::write_trace_file(cfg.trace_out, flows);
  for (const auto& f : flows) book.note(f.id, f.group_id, f.request_id);
  return flows;
}

ExperimentResult run_leaf_spine_packet(const ExperimentConfig& cfg,
                                       const SerialOverrides* overrides) {
  const auto wall_start = std::chrono::steady_clock::now();

  const bool mixed = cfg.background_dctcp_fraction > 0.0;
  // Samplers, the completion poll, faults and rate reservations all need the
  // serial event loop (validate() keeps them off sharded runs).
  const bool serial = cfg.shards == 1;

  sim::ShardGroup group{cfg.seed, cfg.shards};
  sim::Simulation& master = group.master();
  sim::Scheduler& sched = master.scheduler();
  net::Network network{master};

  net::LeafSpineConfig topo_cfg;
  topo_cfg.leaves = cfg.leaves;
  topo_cfg.spines = cfg.spines;
  topo_cfg.hosts_per_leaf = cfg.hosts_per_leaf;
  topo_cfg.link_rate = cfg.link_rate;
  topo_cfg.link_delay = cfg.link_delay;
  topo_cfg.host_nic_queue_pkts = cfg.queues.host_nic_pkts;
  topo_cfg.queue_factory = mixed ? core::make_mixed_queue_factory(cfg.queues)
                                 : core::make_queue_factory(cfg.proto, cfg.queues);
  topo_cfg.marker_factory =
      mixed ? core::make_mixed_marker_factory(cfg.queues)
            : core::make_marker_factory(cfg.proto, net::kMtuBytes, cfg.queues.ecn_threshold_pkts);
  topo_cfg.multipath = cfg.multipath;
  net::LeafSpine topo = net::build_leaf_spine(network, topo_cfg);

  ShardedScenario scen{group, network, net::partition_leaf_spine(network, topo, cfg.shards),
                       cfg.link_rate, topo.base_rtt};

  // Injected fault schedule, drawn from its own seed stream (so a fault
  // scenario can be pinned while the workload seed sweeps). The injector
  // must outlive scen.run below — its scheduled callbacks read it.
  std::unique_ptr<fault::FaultInjector> injector;
  if (cfg.fault_incidents > 0) {
    std::vector<net::PortId> fabric_ports;
    for (int l = 0; l < cfg.leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) fabric_ports.push_back(topo.leaf_down[l][h]);
      for (int s = 0; s < cfg.spines; ++s) {
        fabric_ports.push_back(topo.leaf_up[l][s]);
        fabric_ports.push_back(topo.spine_down[s][l]);
      }
    }
    fault::FaultPlan plan;
    plan.seed = cfg.fault_seed;
    sim::Rng fault_rng{cfg.fault_seed};
    plan.draw(fault_rng, fabric_ports, topo.base_rtt, cfg.fault_incidents);
    injector = std::make_unique<fault::FaultInjector>(network, std::move(plan));
    injector->arm();
  }

  transport::TransportConfig tcfg;
  tcfg.host_rate = cfg.link_rate;
  tcfg.base_rtt = topo.base_rtt;
  tcfg.homa_overcommit = cfg.homa_overcommit;
  tcfg.loss_timeout = cfg.loss_timeout;

  const double bg_fraction = cfg.background_dctcp_fraction;
  scen.attach_endpoints(topo.hosts, [&](sim::Simulation& home, net::Host& host,
                                        stats::FlowObserver* observer) {
    if (!mixed) return core::make_endpoint(cfg.proto, home, host, tcfg, observer);
    return core::make_mixed_endpoint(home, host, tcfg, observer, [bg_fraction](net::FlowId id) {
      return is_background_flow(id, bg_fraction);
    });
  });

  // Workload, drawn from the master's random stream — unless the caller
  // (the mixed-fidelity runner) already drew the schedule.
  stats::GroupBook book;
  std::vector<workload::GeneratedFlow> flows;
  if (overrides != nullptr && overrides->flows != nullptr) {
    flows = *overrides->flows;
    for (const auto& f : flows) book.note(f.id, f.group_id, f.request_id);
  } else {
    flows = generate_flows(cfg, topo.hosts.size(), master.rng(), book);
  }
  if (flows.empty()) return {};
  scen.schedule_starts(flows);

  // Mixed fidelity: replay the fluid side's bandwidth usage as scheduled
  // serialization-rate reservations on the shared fabric ports.
  if (overrides != nullptr && overrides->rate_scale) {
    for (const auto& ev : overrides->rate_scale(topo)) {
      net::EgressPort* port = &network.port_at(ev.port);
      const double scale = ev.scale;
      sched.at(ev.at, [port, scale] { port->set_rate_scale(scale); });
    }
  }

  // Serial runs monitor every receiver downlink (the typical bottleneck)
  // plus the fabric, for queue high-water marks, and stop as soon as every
  // flow has completed (samplers and recovery timers would otherwise keep
  // the event loop alive forever). Sharded runs have neither — periodic
  // callbacks would keep every shard's window advancing — so they drain
  // under the max_sim_time horizon and take the queue high-water from the
  // queues' own counters.
  std::vector<std::unique_ptr<net::PortSampler>> downlinks;
  std::vector<std::unique_ptr<net::PortSampler>> fabric;
  std::function<void()> poll;
  if (serial) {
    for (int l = 0; l < cfg.leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
        downlinks.push_back(std::make_unique<net::PortSampler>(
            master, network.port_at(topo.leaf_down[l][h]), cfg.sample_interval));
        downlinks.back()->start();
      }
      for (int s = 0; s < cfg.spines; ++s) {
        fabric.push_back(std::make_unique<net::PortSampler>(
            master, network.port_at(topo.leaf_up[l][s]), cfg.sample_interval));
        fabric.back()->start();
        fabric.push_back(std::make_unique<net::PortSampler>(
            master, network.port_at(topo.spine_down[s][l]), cfg.sample_interval));
        fabric.back()->start();
      }
    }
    const stats::FctRecorder& recorder = scen.shard_recorder(0);
    const std::size_t expected = flows.size();
    const sim::TimePoint last_start = flows.back().start;
    poll = [&, expected, last_start] {
      if (recorder.completed().size() >= expected && sched.now() > last_start) {
        sched.stop();
        return;
      }
      sched.after(sim::Duration::milliseconds(1), poll);
    };
    sched.after(sim::Duration::milliseconds(1), poll);
  }

  ShardedScenario::RunLimits limits;
  limits.horizon = sim::TimePoint::zero() + cfg.max_sim_time;
  scen.run(limits);

  const stats::FctRecorder& recorder = scen.merged();
  ExperimentResult out;
  out.fct_all = recorder.summarize();
  out.fct_small = recorder.summarize(0, 100'000);
  out.fct_large = recorder.summarize(1'000'000, UINT64_MAX);
  out.flows_started = recorder.started_count();
  out.flows_completed = recorder.completed().size();
  out.flow_records = recorder.completed();
  finish_group_stats(book, out);
  out.bytes_delivered = recorder.bytes_delivered();
  out.events = scen.events();
  out.sim_seconds = group.now_max().to_seconds();

  if (mixed) {
    std::vector<stats::FlowRecord> fg;
    std::vector<stats::FlowRecord> bg;
    for (const auto& r : out.flow_records) {
      (is_background_flow(r.flow, bg_fraction) ? bg : fg).push_back(r);
    }
    out.fct_foreground = summarize_records(fg);
    out.fct_background = summarize_records(bg);
  } else {
    out.fct_foreground = out.fct_all;
  }

  double util_sum = 0.0;
  double weight_sum = 0.0;
  out.downlink_utilization.reserve(downlinks.size());
  for (const auto& s : downlinks) {
    const auto u = active_window_utilization(*s);
    out.downlink_utilization.push_back(u.utilization < 0.0 ? 0.0 : u.utilization);
    if (u.utilization >= 0.0) {
      util_sum += u.utilization * u.weight_bytes;
      weight_sum += u.weight_bytes;
    }
    out.max_queue_pkts = std::max(out.max_queue_pkts, s->max_queue_pkts());
  }
  for (const auto& s : fabric) {
    out.max_queue_pkts = std::max(out.max_queue_pkts, s->max_queue_pkts());
  }
  out.mean_utilization = weight_sum == 0.0 ? 0.0 : util_sum / weight_sum;

  for (const auto& sw : network.switches()) {
    for (int p = 0; p < sw.port_count(); ++p) {
      const auto& st = sw.port(p).queue().stats();
      out.drops += st.dropped;
      out.trims += st.trimmed;
      if (!serial) out.max_queue_pkts = std::max(out.max_queue_pkts, st.max_data_pkts);
    }
  }
  out.faulted = network.packets_faulted();

  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  if (out.flows_completed < out.flows_started) {
    master.trace().warn("run_leaf_spine[%s/%s, %u shard(s)]: %zu of %zu flows incomplete at t=%s",
                        transport::to_string(cfg.proto), workload::abbrev(cfg.workload),
                        cfg.shards, out.flows_started - out.flows_completed, out.flows_started,
                        group.now_max().str().c_str());
  }
  return out;
}

}  // namespace detail

void validate(const ExperimentConfig& cfg) {
  auto reject = [](const std::string& why) { throw std::invalid_argument(why); };
  if (cfg.shards == 0 || cfg.shards > sim::kMaxThreads) {
    reject("--shards must be in [1, " + std::to_string(sim::kMaxThreads) + "]");
  }
  const bool sharded = cfg.shards > 1;
  const bool faults = cfg.fault_incidents > 0;
  const bool mixed = cfg.background_dctcp_fraction > 0.0;
  if (faults && sharded) {
    reject("--faults and --shards are mutually exclusive (the fault injector mutates link "
           "state from the serial event loop)");
  }
  if (mixed && sharded) {
    reject("--mixed and --shards are mutually exclusive (the coexistence metrics need the "
           "serial utilization samplers)");
  }
  if (mixed && cfg.proto != transport::Protocol::kAmrt) {
    reject("--mixed pairs DCTCP background with an AMRT foreground: it requires --proto=AMRT");
  }
  if (cfg.fidelity == Fidelity::kPacket) return;
  const std::string fidelity = std::string{"--fidelity="} + to_string(cfg.fidelity);
  if (sharded) reject(fidelity + " and --shards are mutually exclusive");
  if (faults) reject(fidelity + " and --faults are mutually exclusive");
  if (cfg.fidelity != Fidelity::kMixed) return;
  if (mixed) {
    reject("--fidelity=mixed and --mixed are mutually exclusive (the fluid side is the "
           "background class; use --flow-background)");
  }
  const double frac = cfg.flow_background_fraction;
  if (!(frac > 0.0 && frac < 1.0)) {
    reject("--fidelity=mixed needs --flow-background in (0, 1)");
  }
}

ExperimentResult run_leaf_spine(const ExperimentConfig& cfg) {
  validate(cfg);
  if (cfg.fidelity == Fidelity::kFlow) return run_leaf_spine_flow(cfg);
  if (cfg.fidelity == Fidelity::kMixed) return run_leaf_spine_mixed(cfg);
  return detail::run_leaf_spine_packet(cfg, nullptr);
}

}  // namespace amrt::harness
