// One repetition of one benchmark workload, in its own process.
//
//   perfbench_run --workload NAME --seed N [--trace] [--reference] [--counted]
//
// Builds the fabric, attaches endpoints, generates and schedules the seeded
// flow schedule, runs it to drain, checks the outputs and prints a single
// JSON object on stdout: host timings (set-up phases, run phase, peak RSS),
// the simulated results (FCT percentiles, utilization, a digest of the
// sorted FCT records) and exact per-layer counts. run.py repeats this
// process and aggregates the repetitions.
//
// --trace wraps the three injection points the library exposes — the
// dequeue-marker factory, the per-host packet sink and the flow observer —
// in forwarding wrappers that record spans (trace.hpp), and drives serial
// runs as fixed simulated-time slices so the pending-event peak can be read
// between them. --reference runs harness::run_leaf_spine on the
// leafspine_fanout_mixed configuration and prints only its digest, so the
// benchmark can prove it measures the program amrt_sim runs. --counted
// gives leafspine_fanout_mixed a marker whose counters can be read (see
// CountedMixedMarker); other runs of that workload time the library's own.
//
// Exit status: 0 when every output check passed, 1 when one failed (the
// JSON then lists the failures), 2 on a usage error.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/anti_ecn.hpp"
#include "core/factory.hpp"
#include "core/threshold_ecn.hpp"
#include "flowsim/fabric.hpp"
#include "flowsim/flowsim.hpp"
#include "harness/experiment.hpp"  // run_leaf_spine, is_background_flow
#include "harness/fidelity.hpp"
#include "harness/sharded.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "sim/simulation.hpp"
#include "stats/fct.hpp"
#include "stats/group.hpp"
#include "trace.hpp"
#include "transport/endpoint.hpp"
#include "workload/traffic.hpp"
#include "workload/workloads.hpp"

using namespace amrt;
using perfbench::Span;
using perfbench::SpanName;

namespace {

// --- workload sizes (the reasons for each: README.md, "Workloads") -----------
constexpr int kFatTreeK = 16;             // 1024 hosts, 320 switches
constexpr workload::Kind kFatTreeSizes = workload::Kind::kWebServer;
constexpr std::size_t kFatTreeFlows = 4000;
constexpr double kFatTreeLoad = 0.1;
constexpr unsigned kShards = 2;
constexpr std::size_t kFlowModeFlows = 1000;
constexpr double kFlowModeLoad = 0.5;
constexpr std::size_t kFanoutFlows = 8000;  // 1000 requests of 8 responses
constexpr std::size_t kFanout = 8;
constexpr double kFanoutLoad = 0.6;
constexpr double kMixedBackground = 0.5;
// Traced serial runs stop the scheduler at this simulated-time stride to
// sample the pending-event count.
constexpr sim::Duration kTraceSlice = sim::Duration::microseconds(50);

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// A field of /proc/self/status ("VmRSS", "VmHWM"), in MB. getrusage's
// ru_maxrss is no substitute: Linux carries it across execve, so a child
// would report its parent's peak when that is larger.
double proc_status_mb(const char* field) {
  std::ifstream status{"/proc/self/status"};
  const std::string prefix = std::string{field} + ":";
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size())) / 1024.0;
  }
  return 0.0;
}

// --- everything one repetition reports ---------------------------------------
struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;

  // Host time.
  double setup_s = 0;
  double run_s = 0;
  double peak_rss_mb = 0;
  double net_build_s = 0;
  double net_rss_mb = 0;
  double attach_s = 0;
  double generate_s = 0;
  double partition_s = 0;
  double fabric_build_s = 0;

  // Simulated outputs (exact per seed).
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  std::uint64_t requests = 0;
  std::uint64_t requests_complete = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t delivered_bytes = 0;
  // Byte-weighted utilization as numerator and denominator, and every
  // flow's and request's completion time, so run.py can pool several
  // schedules.
  double util_num = 0;
  double util_den = 0;
  std::vector<std::int64_t> fct_ns;
  std::vector<std::int64_t> request_ns;
  std::string digest;

  // Exact per-layer counts.
  std::uint64_t events = 0;
  std::uint64_t ports = 0;
  std::uint64_t port_pkts_sent = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t queue_peak_pkts = 0;
  std::uint64_t antiecn_observed = 0;
  std::uint64_t antiecn_kept = 0;
  std::uint64_t antiecn_cleared = 0;
  std::uint64_t ecn_observed = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t data_arrivals = 0;
  std::uint64_t ctrl_arrivals = 0;
  std::uint64_t data_payload_arrived = 0;
  std::uint64_t pending_peak = 0;
  std::uint64_t flowsim_events = 0;
  std::uint64_t flowsim_recomputes = 0;
  std::uint64_t shard_rounds = 0;
  std::vector<std::uint64_t> shard_events;

  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// --- simulated-output summaries ----------------------------------------------

// FNV-1a over the FCT records sorted by flow id: identical iff every flow
// has the same size, start and end, to the nanosecond.
std::string records_digest(std::vector<stats::FlowRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const stats::FlowRecord& a, const stats::FlowRecord& b) { return a.flow < b.flow; });
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& r : records) {
    mix(r.flow);
    mix(r.bytes);
    mix(static_cast<std::uint64_t>(r.start.ns()));
    mix(static_cast<std::uint64_t>(r.end.ns()));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// Completion times, completion checks and the request axis. Workloads
// without fan-out structure treat each flow as its own request.
void summarize_flows(const std::vector<workload::GeneratedFlow>& flows,
                     const stats::FctRecorder& recorder, Result& r) {
  r.flows = flows.size();
  for (const auto& f : flows) r.offered_bytes += f.bytes;
  r.completed = recorder.completed().size();
  r.delivered_bytes = recorder.bytes_delivered();

  std::vector<stats::FlowRecord> records = recorder.completed();
  std::sort(records.begin(), records.end(),
            [](const stats::FlowRecord& a, const stats::FlowRecord& b) { return a.flow < b.flow; });
  for (const auto& rec : records) r.fct_ns.push_back(rec.fct().ns());

  stats::GroupBook book;
  for (const auto& f : flows) book.note(f.id, f.group_id, f.request_id);
  if (book.empty()) {
    r.requests = r.flows;
    r.requests_complete = r.completed;
    r.request_ns = r.fct_ns;
  } else {
    book.annotate(records);
    const stats::GroupStats req = book.request_stats(records);
    r.requests = req.groups;
    r.requests_complete = req.complete;
    // Request completion: first member's start to last member's end, as
    // GroupBook::request_stats measures it (it only exposes percentiles).
    std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> spans;
    for (const auto& rec : records) {
      auto [it, fresh] = spans.try_emplace(rec.request, rec.start.ns(), rec.end.ns());
      if (!fresh) {
        it->second.first = std::min(it->second.first, rec.start.ns());
        it->second.second = std::max(it->second.second, rec.end.ns());
      }
    }
    for (const auto& [id, span] : spans) r.request_ns.push_back(span.second - span.first);
  }
  r.digest = records_digest(std::move(records));

  r.check(r.flows > 0, "no flows generated");
  r.check(r.completed == r.flows && recorder.incomplete_count() == 0,
          "flows incomplete at drain: " + std::to_string(r.completed) + " of " +
              std::to_string(r.flows));
  r.check(r.requests_complete == r.requests, "requests incomplete at drain");
  r.check(r.delivered_bytes == r.offered_bytes,
          "delivered bytes " + std::to_string(r.delivered_bytes) + " != offered bytes " +
              std::to_string(r.offered_bytes));
}

// Byte-weighted receiver-downlink utilization over each link's active
// window, from the ports' own counters (so it works sharded). A downlink's
// window opens at the earliest start of a flow its host sends or receives
// (the first packet it can carry is that flow's RTS or grant) and closes at
// the end of its last transmission.
void downlink_utilization(const net::Network& network, const std::vector<net::PortId>& downlink,
                          const std::vector<workload::GeneratedFlow>& flows, Result& r) {
  std::vector<std::int64_t> open(downlink.size(), INT64_MAX);
  for (const auto& f : flows) {
    open[f.src_host] = std::min(open[f.src_host], f.start.ns());
    open[f.dst_host] = std::min(open[f.dst_host], f.start.ns());
  }
  for (std::size_t h = 0; h < downlink.size(); ++h) {
    const net::EgressPort& port = network.port_at(downlink[h]);
    if (port.packets_sent() == 0 || open[h] == INT64_MAX) continue;
    const double window_ns = static_cast<double>(port.last_tx_end().ns() - open[h]);
    if (window_ns <= 0.0) continue;
    const double util = static_cast<double>(port.busy_time().ns()) / window_ns;
    const double bytes = static_cast<double>(port.bytes_sent());
    r.util_num += util * bytes;
    r.util_den += bytes;
  }
}

// Port and queue counters, plus the drain checks on every queue.
void collect_ports(const net::Network& network, Result& r) {
  r.ports = network.port_count();
  std::size_t undrained = 0;
  for (std::size_t p = 0; p < network.port_count(); ++p) {
    const net::EgressPort& port = network.port_at(static_cast<net::PortId>(p));
    const net::QueueStats& st = port.queue().stats();
    r.port_pkts_sent += port.packets_sent();
    r.enqueued += st.enqueued;
    r.dropped += st.dropped;
    r.queue_peak_pkts = std::max<std::uint64_t>(r.queue_peak_pkts, st.max_data_pkts);
    if (!port.queue().empty() || st.enqueued != st.dequeued + st.dropped) ++undrained;
  }
  r.check(undrained == 0, std::to_string(undrained) +
                              " ports not drained (queue non-empty or enqueued != dequeued + "
                              "dropped)");
}

// --- markers -----------------------------------------------------------------

// Both ECN semantics on one port, forwarding in the same order as the
// library's mixed-fabric marker (core::make_mixed_marker), whose inner
// counters are not reachable from outside. Only --counted repetitions use
// it, so the timed ones measure the library's marker; run.py requires the
// counted repetition's simulated results to equal the timed ones'.
class CountedMixedMarker final : public net::DequeueMarker {
 public:
  CountedMixedMarker(std::uint32_t probe_bytes, std::size_t threshold_pkts)
      : anti_{probe_bytes}, threshold_{threshold_pkts} {}
  void bind_queue(const net::EgressQueue& queue) override {
    anti_.bind_queue(queue);
    threshold_.bind_queue(queue);
  }
  void on_dequeue(net::Packet& pkt, sim::TimePoint tx_start, sim::TimePoint last_tx_end,
                  sim::Bandwidth rate) override {
    anti_.on_dequeue(pkt, tx_start, last_tx_end, rate);
    threshold_.on_dequeue(pkt, tx_start, last_tx_end, rate);
  }
  [[nodiscard]] const core::AntiEcnMarker& anti() const { return anti_; }
  [[nodiscard]] const core::ThresholdEcnMarker& threshold() const { return threshold_; }

 private:
  core::AntiEcnMarker anti_;
  core::ThresholdEcnMarker threshold_;
};

// Forwards every call to the marker it owns, inside a "marker" span.
class TracedMarker final : public net::DequeueMarker {
 public:
  explicit TracedMarker(std::unique_ptr<net::DequeueMarker> inner) : inner_{std::move(inner)} {}
  void bind_queue(const net::EgressQueue& queue) override { inner_->bind_queue(queue); }
  void on_dequeue(net::Packet& pkt, sim::TimePoint tx_start, sim::TimePoint last_tx_end,
                  sim::Bandwidth rate) override {
    Span span{SpanName::kMarker};
    inner_->on_dequeue(pkt, tx_start, last_tx_end, rate);
  }

 private:
  std::unique_ptr<net::DequeueMarker> inner_;
};

// Remembers every marker the factory hands out so their counters can be
// read after the run.
struct MarkerBook {
  std::vector<const core::AntiEcnMarker*> anti;
  std::vector<const core::ThresholdEcnMarker*> threshold;

  void note(const net::DequeueMarker& m) {
    if (const auto* a = dynamic_cast<const core::AntiEcnMarker*>(&m)) anti.push_back(a);
    if (const auto* t = dynamic_cast<const core::ThresholdEcnMarker*>(&m)) threshold.push_back(t);
    if (const auto* mixed = dynamic_cast<const CountedMixedMarker*>(&m)) {
      anti.push_back(&mixed->anti());
      threshold.push_back(&mixed->threshold());
    }
  }

  void collect(Result& r) const {
    std::size_t overcounted = 0;
    for (const auto* a : anti) {
      r.antiecn_observed += a->observed();
      r.antiecn_kept += a->kept_marked();
      r.antiecn_cleared += a->cleared();
      if (a->kept_marked() + a->cleared() > a->observed()) ++overcounted;
    }
    r.check(overcounted == 0,
            std::to_string(overcounted) + " anti-ECN markers with kept_marked + cleared > observed");
    for (const auto* t : threshold) {
      r.ecn_observed += t->observed();
      r.ecn_marked += t->marked();
    }
  }
};

net::MarkerFactory booked_factory(net::MarkerFactory inner, MarkerBook& book, bool traced) {
  return [inner = std::move(inner), &book, traced]() -> std::unique_ptr<net::DequeueMarker> {
    std::unique_ptr<net::DequeueMarker> m = inner();
    book.note(*m);
    if (traced) return std::make_unique<TracedMarker>(std::move(m));
    return m;
  };
}

// --- packet sink and flow observer wrappers ----------------------------------

// Owns the host's endpoint and forwards every delivery inside a "deliver"
// span, counting arrivals by packet type on the way.
class TracedSink final : public net::PacketSink {
 public:
  TracedSink(std::unique_ptr<transport::TransportEndpoint> ep, const sim::Scheduler& sched,
             bool sample_pending)
      : ep_{std::move(ep)}, sched_{sched}, sample_pending_{sample_pending} {}

  void deliver(net::Packet&& pkt) override {
    if (pkt.type == net::PacketType::kData) {
      ++data_arrivals;
      data_payload += pkt.payload_bytes;
    } else {
      ++ctrl_arrivals;
    }
    if (sample_pending_) pending_peak = std::max(pending_peak, sched_.pending_events());
    Span span{SpanName::kDeliver};
    ep_->deliver(std::move(pkt));
  }

  std::uint64_t data_arrivals = 0;
  std::uint64_t ctrl_arrivals = 0;
  std::uint64_t data_payload = 0;
  std::size_t pending_peak = 0;

 private:
  std::unique_ptr<transport::TransportEndpoint> ep_;
  const sim::Scheduler& sched_;
  bool sample_pending_;
};

class TracedObserver final : public stats::FlowObserver {
 public:
  explicit TracedObserver(stats::FlowObserver& inner) : inner_{inner} {}
  void on_flow_started(std::uint64_t flow, std::uint64_t bytes, sim::TimePoint at) override {
    Span span{SpanName::kObserver};
    inner_.on_flow_started(flow, bytes, at);
  }
  void on_flow_progress(std::uint64_t flow, std::uint64_t delta_bytes, sim::TimePoint at) override {
    Span span{SpanName::kObserver};
    inner_.on_flow_progress(flow, delta_bytes, at);
  }
  void on_flow_completed(std::uint64_t flow, sim::TimePoint at) override {
    Span span{SpanName::kObserver};
    inner_.on_flow_completed(flow, at);
  }

 private:
  stats::FlowObserver& inner_;
};

// Per-host endpoints, attached either bare or behind a TracedSink.
struct Endpoints {
  std::vector<transport::TransportEndpoint*> by_host;
  std::vector<const TracedSink*> sinks;

  void attach(net::Host& host, std::unique_ptr<transport::TransportEndpoint> ep,
              const sim::Scheduler& sched, bool traced, bool sample_pending) {
    by_host.push_back(ep.get());
    if (!traced) {
      host.attach(std::move(ep));
      return;
    }
    auto sink = std::make_unique<TracedSink>(std::move(ep), sched, sample_pending);
    sinks.push_back(sink.get());
    host.attach(std::move(sink));
  }

  void collect(Result& r) const {
    for (const TracedSink* s : sinks) {
      r.data_arrivals += s->data_arrivals;
      r.ctrl_arrivals += s->ctrl_arrivals;
      r.data_payload_arrived += s->data_payload;
    }
  }
};

template <typename Sched>
void schedule_starts(const std::vector<workload::GeneratedFlow>& flows,
                     const std::vector<net::Host*>& hosts, const Endpoints& eps, bool traced,
                     Sched&& sched_of) {
  for (const auto& f : flows) {
    const transport::FlowSpec spec{f.id, hosts[f.src_host]->id(), hosts[f.dst_host]->id(),
                                   f.bytes, f.start};
    transport::TransportEndpoint* src = eps.by_host[f.src_host];
    sim::Scheduler& sched = sched_of(spec.src);
    if (traced) {
      sched.at(f.start, [src, spec] {
        Span span{SpanName::kStartFlow};
        src->start_flow(spec);
      });
    } else {
      sched.at(f.start, [src, spec] { src->start_flow(spec); });
    }
  }
}

// Runs a serial scheduler to drain: one run() untraced, fixed simulated-time
// slices traced (sampling the pending-event count between slices).
void run_serial(sim::Scheduler& sched, bool traced, Result& r) {
  if (!traced) {
    sched.run();
    return;
  }
  std::size_t peak = sched.pending_events();
  sim::TimePoint until = sim::TimePoint::zero();
  while (!sched.idle()) {
    until += kTraceSlice;
    sched.run_until(until);
    peak = std::max(peak, sched.pending_events());
  }
  r.pending_peak = peak;
}

workload::TrafficConfig traffic_config(double load, std::size_t n_flows, std::size_t n_hosts,
                                       sim::Bandwidth rate) {
  workload::TrafficConfig traffic;
  traffic.load = load;
  traffic.n_flows = n_flows;
  traffic.n_hosts = n_hosts;
  traffic.host_rate = rate;
  return traffic;
}

// --- workloads ---------------------------------------------------------------

// k=16 fat-tree, AMRT, websearch, legacy engine: serial (shards == 1) or on
// the pod-sharded executor.
Result run_fattree(std::uint64_t seed, unsigned shards, bool traced) {
  Result r;
  const transport::Protocol proto = transport::Protocol::kAmrt;
  const auto setup0 = Clock::now();

  // Serial runs build against a plain Simulation; sharded ones against the
  // group's master, which carries the same seed.
  std::unique_ptr<sim::Simulation> serial;
  std::unique_ptr<sim::ShardGroup> group;
  if (shards > 1) {
    group = std::make_unique<sim::ShardGroup>(seed, shards);
  } else {
    serial = std::make_unique<sim::Simulation>(seed);
  }
  sim::Simulation& master = shards > 1 ? group->master() : *serial;
  net::Network network{master};

  MarkerBook markers;
  net::FatTreeConfig topo_cfg;
  topo_cfg.k = kFatTreeK;
  topo_cfg.queue_factory = core::make_queue_factory(proto);
  topo_cfg.marker_factory = booked_factory(core::make_marker_factory(proto), markers, traced);
  const double rss0 = proc_status_mb("VmRSS");
  auto t = Clock::now();
  const net::FatTree topo = net::build_fat_tree(network, topo_cfg);
  r.net_build_s = seconds_since(t);
  r.net_rss_mb = proc_status_mb("VmRSS") - rss0;

  std::unique_ptr<harness::ShardedScenario> scen;
  if (shards > 1) {
    t = Clock::now();
    scen = std::make_unique<harness::ShardedScenario>(
        *group, network, net::partition_fat_tree(network, topo, shards), topo_cfg.link_rate,
        topo.base_rtt);
    r.partition_s = seconds_since(t);
  }

  transport::TransportConfig tcfg;
  tcfg.host_rate = topo_cfg.link_rate;
  tcfg.base_rtt = topo.base_rtt;
  stats::FctRecorder serial_recorder{topo_cfg.link_rate, topo.base_rtt};
  // Transports report to one recorder per shard (the single serial one
  // otherwise); traced runs put one TracedObserver in front of each.
  std::vector<std::unique_ptr<TracedObserver>> traced_observers(shards);
  auto observer_for = [&](net::NodeId host) -> stats::FlowObserver* {
    stats::FctRecorder& rec = shards > 1 ? scen->recorder_of(host) : serial_recorder;
    if (!traced) return &rec;
    auto& slot = traced_observers[shards > 1 ? scen->shard_of(host) : 0];
    if (!slot) slot = std::make_unique<TracedObserver>(rec);
    return slot.get();
  };

  t = Clock::now();
  Endpoints eps;
  eps.by_host.reserve(topo.hosts.size());
  for (net::Host* host : topo.hosts) {
    sim::Simulation& home = shards > 1 ? scen->sim_of(host->id()) : *serial;
    stats::FlowObserver* observer = observer_for(host->id());
    eps.attach(*host, core::make_endpoint(proto, home, *host, tcfg, observer), home.scheduler(),
               traced, shards > 1);
  }
  r.attach_s = seconds_since(t);

  t = Clock::now();
  const auto flows = workload::generate_traffic(
      workload::WorkloadSpec{}, &workload::cdf(kFatTreeSizes),
      traffic_config(kFatTreeLoad, kFatTreeFlows, topo.hosts.size(), topo_cfg.link_rate),
      master.rng());
  r.generate_s = seconds_since(t);
  if (shards > 1) {
    schedule_starts(flows, topo.hosts, eps, traced,
                    [&](net::NodeId src) -> sim::Scheduler& { return scen->sched_of(src); });
  } else {
    schedule_starts(flows, topo.hosts, eps, traced,
                    [&](net::NodeId) -> sim::Scheduler& { return serial->scheduler(); });
  }
  r.setup_s = seconds_since(setup0);

  t = Clock::now();
  if (shards > 1) {
    const harness::ShardedScenario::RunStatus st = scen->run({});
    r.run_s = seconds_since(t);
    r.shard_rounds = st.rounds;
    r.check(!st.event_limit_hit && !st.horizon_hit, "sharded run stopped at a limit");
    r.events = scen->events();
    for (unsigned s = 0; s < shards; ++s) {
      r.shard_events.push_back(group->shard(s).scheduler().events_processed());
    }
    if (traced) {
      // Per-shard peak, sampled at each delivery on that shard's thread.
      std::vector<std::size_t> peak(shards, 0);
      for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
        const unsigned s = scen->shard_of(topo.hosts[h]->id());
        peak[s] = std::max(peak[s], eps.sinks[h]->pending_peak);
      }
      for (const std::size_t p : peak) r.pending_peak += p;
    }
    summarize_flows(flows, scen->merged(), r);
  } else {
    run_serial(serial->scheduler(), traced, r);
    r.run_s = seconds_since(t);
    r.events = serial->scheduler().events_processed();
    summarize_flows(flows, serial_recorder, r);
  }

  std::vector<net::PortId> downlinks;
  for (const auto& edge : topo.edge_down) downlinks.insert(downlinks.end(), edge.begin(), edge.end());
  downlink_utilization(network, downlinks, flows, r);
  collect_ports(network, r);
  markers.collect(r);
  eps.collect(r);
  return r;
}

// The experiment configuration amrt_sim builds for
//   --mixed=0.5 --workload-engine=fanout --fanout=8 --workload=WSv --load=0.6
harness::ExperimentConfig fanout_mixed_config(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.proto = transport::Protocol::kAmrt;
  cfg.workload = workload::Kind::kWebServer;
  cfg.load = kFanoutLoad;
  cfg.n_flows = kFanoutFlows;
  cfg.engine.engine = workload::Engine::kFanout;
  cfg.engine.fanout = kFanout;
  cfg.background_dctcp_fraction = kMixedBackground;
  cfg.seed = seed;
  return cfg;
}

// Default 4x4x8 leaf-spine, AMRT foreground + DCTCP background, fan-out
// requests: the same assembly as harness::run_leaf_spine's serial path,
// minus its utilization samplers and completion poll (the run drains
// naturally instead).
Result run_leafspine(std::uint64_t seed, bool traced, bool counted) {
  Result r;
  const harness::ExperimentConfig cfg = fanout_mixed_config(seed);
  const auto setup0 = Clock::now();

  sim::Simulation simu{cfg.seed};
  net::Network network{simu};

  MarkerBook markers;
  net::LeafSpineConfig topo_cfg;
  topo_cfg.leaves = cfg.leaves;
  topo_cfg.spines = cfg.spines;
  topo_cfg.hosts_per_leaf = cfg.hosts_per_leaf;
  topo_cfg.link_rate = cfg.link_rate;
  topo_cfg.link_delay = cfg.link_delay;
  topo_cfg.host_nic_queue_pkts = cfg.queues.host_nic_pkts;
  topo_cfg.queue_factory = core::make_mixed_queue_factory(cfg.queues);
  const std::size_t threshold = cfg.queues.ecn_threshold_pkts;
  net::MarkerFactory marker_factory = core::make_mixed_marker_factory(cfg.queues);
  if (counted) {
    marker_factory = [threshold]() -> std::unique_ptr<net::DequeueMarker> {
      return std::make_unique<CountedMixedMarker>(net::kMtuBytes, threshold);
    };
  }
  topo_cfg.marker_factory = booked_factory(std::move(marker_factory), markers, traced);
  topo_cfg.multipath = cfg.multipath;
  const double rss0 = proc_status_mb("VmRSS");
  auto t = Clock::now();
  const net::LeafSpine topo = net::build_leaf_spine(network, topo_cfg);
  r.net_build_s = seconds_since(t);
  r.net_rss_mb = proc_status_mb("VmRSS") - rss0;

  transport::TransportConfig tcfg;
  tcfg.host_rate = cfg.link_rate;
  tcfg.base_rtt = topo.base_rtt;
  tcfg.homa_overcommit = cfg.homa_overcommit;
  tcfg.loss_timeout = cfg.loss_timeout;

  stats::FctRecorder recorder{cfg.link_rate, topo.base_rtt};
  TracedObserver traced_observer{recorder};
  stats::FlowObserver* observer = traced ? static_cast<stats::FlowObserver*>(&traced_observer)
                                         : &recorder;
  const double bg = cfg.background_dctcp_fraction;
  t = Clock::now();
  Endpoints eps;
  eps.by_host.reserve(topo.hosts.size());
  for (net::Host* host : topo.hosts) {
    eps.attach(*host,
               core::make_mixed_endpoint(
                   simu, *host, tcfg, observer,
                   [bg](net::FlowId id) { return harness::is_background_flow(id, bg); }),
               simu.scheduler(), traced, false);
  }
  r.attach_s = seconds_since(t);

  t = Clock::now();
  const auto flows = workload::generate_traffic(
      cfg.engine, &workload::cdf(cfg.workload),
      traffic_config(cfg.load, cfg.n_flows, topo.hosts.size(), cfg.link_rate), simu.rng());
  r.generate_s = seconds_since(t);
  schedule_starts(flows, topo.hosts, eps, traced,
                  [&](net::NodeId) -> sim::Scheduler& { return simu.scheduler(); });
  r.setup_s = seconds_since(setup0);

  t = Clock::now();
  run_serial(simu.scheduler(), traced, r);
  r.run_s = seconds_since(t);
  r.events = simu.scheduler().events_processed();
  summarize_flows(flows, recorder, r);

  std::vector<net::PortId> downlinks;
  for (const auto& leaf : topo.leaf_down) downlinks.insert(downlinks.end(), leaf.begin(), leaf.end());
  downlink_utilization(network, downlinks, flows, r);
  collect_ports(network, r);
  markers.collect(r);
  eps.collect(r);
  return r;
}

// k=16 fat-tree at flow fidelity: fluid max-min sharing under the AMRT
// grant-clock rate model, on the websearch schedule.
Result run_flow(std::uint64_t seed, bool traced) {
  Result r;
  const net::FatTreeConfig defaults;
  const auto setup0 = Clock::now();

  auto t = Clock::now();
  const flowsim::Fabric fabric = flowsim::Fabric::fat_tree(kFatTreeK, defaults.link_rate);
  r.fabric_build_s = seconds_since(t);

  flowsim::FlowSimConfig fscfg;
  fscfg.rtt = net::path_base_rtt(6, defaults.link_rate, defaults.link_delay);
  fscfg.payload_fraction =
      static_cast<double>(net::kMssBytes) / static_cast<double>(net::kMtuBytes);
  fscfg.prop_delay = defaults.link_delay;
  fscfg.mtu_tx = defaults.link_rate.tx_time(net::kMtuBytes);
  fscfg.mtu_bytes = net::kMtuBytes;
  fscfg.mss_bytes = net::kMssBytes;

  sim::Rng rng{seed};
  t = Clock::now();
  const auto flows = workload::generate_traffic(
      workload::WorkloadSpec{}, &workload::cdf(workload::Kind::kWebSearch),
      traffic_config(kFlowModeLoad, kFlowModeFlows, fabric.n_hosts(), defaults.link_rate), rng);
  r.generate_s = seconds_since(t);

  flowsim::FlowSim fsim{fabric, fscfg};
  const flowsim::RateModel model = harness::rate_model_for(transport::Protocol::kAmrt);
  for (const auto& f : flows) fsim.add_flow(f.id, f.src_host, f.dst_host, f.bytes, f.start, model);
  r.setup_s = seconds_since(setup0);

  stats::FctRecorder recorder{defaults.link_rate, fscfg.rtt};
  TracedObserver traced_observer{recorder};
  t = Clock::now();
  const flowsim::FlowSimResult run =
      fsim.run(traced ? static_cast<stats::FlowObserver*>(&traced_observer) : &recorder);
  r.run_s = seconds_since(t);
  r.flowsim_events = run.events;
  r.flowsim_recomputes = run.recomputes;
  r.events = run.events;
  summarize_flows(flows, recorder, r);
  r.check(run.started == flows.size() && run.completed == flows.size(),
          "flowsim finished " + std::to_string(run.completed) + " of " +
              std::to_string(flows.size()) + " flows");

  // Byte-weighted wire occupancy of the host downlinks over each link's
  // active window (as harness/fidelity.cpp reports it for flow runs).
  for (std::size_t h = 0; h < fabric.n_hosts(); ++h) {
    const flowsim::LinkId l = fabric.host_down(h);
    const double bytes = fsim.link_bytes(l);
    const double window = (fsim.link_last_busy(l) - fsim.link_first_busy(l)).to_seconds();
    if (bytes <= 0.0 || window <= 0.0) continue;
    const double util =
        bytes / fscfg.payload_fraction * 8.0 / (fabric.capacity_bps(l) * window);
    r.util_num += util * bytes;
    r.util_den += bytes;
  }
  return r;
}

// --- output ------------------------------------------------------------------

class JsonLine {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void num(const char* key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    raw(key, q + "\"");
  }
  void raw(const char* key, const std::string& v) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += "\"";
    out_ += key;
    out_ += "\": ";
    out_ += v;
  }
  [[nodiscard]] std::string done() const { return out_ + "}"; }

 private:
  std::string out_;
};

template <typename T>
std::string int_list(const std::vector<T>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(xs[i]);
  }
  return out + "]";
}

void print_result(const Result& r) {
  JsonLine j;
  j.str("workload", r.workload);
  j.num("seed", r.seed);
  j.raw("traced", r.traced ? "true" : "false");
  j.raw("ok", r.failures.empty() ? "true" : "false");
  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    JsonLine f;
    f.str("what", r.failures[i]);
    failures += (i ? ", " : "") + f.done();
  }
  j.raw("failures", failures + "]");

  j.num("setup_s", r.setup_s);
  j.num("run_s", r.run_s);
  j.num("peak_rss_mb", r.peak_rss_mb);
  j.num("net_build_s", r.net_build_s);
  j.num("net_rss_mb", r.net_rss_mb);
  j.num("attach_s", r.attach_s);
  j.num("generate_s", r.generate_s);
  j.num("partition_s", r.partition_s);
  j.num("fabric_build_s", r.fabric_build_s);

  j.num("flows", r.flows);
  j.num("completed", r.completed);
  j.num("requests", r.requests);
  j.num("requests_complete", r.requests_complete);
  j.num("offered_bytes", r.offered_bytes);
  j.num("delivered_bytes", r.delivered_bytes);
  j.num("util_num", r.util_num);
  j.num("util_den", r.util_den);
  j.raw("fct_ns", int_list(r.fct_ns));
  j.raw("request_ns", int_list(r.request_ns));
  j.str("digest", r.digest);

  j.num("events", r.events);
  j.num("ports", r.ports);
  j.num("port_pkts_sent", r.port_pkts_sent);
  j.num("enqueued", r.enqueued);
  j.num("dropped", r.dropped);
  j.num("queue_peak_pkts", r.queue_peak_pkts);
  j.num("antiecn_observed", r.antiecn_observed);
  j.num("antiecn_kept", r.antiecn_kept);
  j.num("antiecn_cleared", r.antiecn_cleared);
  j.num("ecn_observed", r.ecn_observed);
  j.num("ecn_marked", r.ecn_marked);
  j.num("data_arrivals", r.data_arrivals);
  j.num("ctrl_arrivals", r.ctrl_arrivals);
  j.num("data_payload_arrived", r.data_payload_arrived);
  j.num("pending_peak", r.pending_peak);
  j.num("flowsim_events", r.flowsim_events);
  j.num("flowsim_recomputes", r.flowsim_recomputes);
  j.num("shard_rounds", r.shard_rounds);
  j.raw("shard_events", int_list(r.shard_events));

  std::string spans = "[";
  if (r.traced) {
    const perfbench::Tracer::Table table = perfbench::Tracer::merged();
    bool first = true;
    for (std::size_t n = 0; n < perfbench::kSpanNames; ++n) {
      for (std::size_t p = 0; p <= perfbench::kSpanNames; ++p) {
        const perfbench::SpanTotals& s = table[n][p];
        if (s.count == 0) continue;
        JsonLine e;
        e.str("name", perfbench::span_label(n));
        e.str("parent", perfbench::span_label(p));
        e.num("count", s.count);
        e.num("total_ns", s.total_ns);
        e.num("self_ns", s.self_ns);
        spans += (first ? "" : ", ") + e.done();
        first = false;
      }
    }
  }
  j.raw("spans", spans + "]");
  std::printf("%s\n", j.done().c_str());
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload fattree16_amrt|leafspine_fanout_mixed|"
               "fattree16_flow|fattree16_sharded --seed N [--trace] [--reference] [--counted]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  bool reference = false;
  bool counted = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--reference") {
      reference = true;
    } else if (arg == "--counted") {
      counted = true;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_seed) {
    usage();
    return 2;
  }

  Result r;
  if (reference) {
    if (workload != "leafspine_fanout_mixed") {
      std::fprintf(stderr, "perfbench_run: --reference applies to leafspine_fanout_mixed only\n");
      return 2;
    }
    const harness::ExperimentResult ref = harness::run_leaf_spine(fanout_mixed_config(seed));
    r.flows = ref.flows_started;
    r.completed = ref.flows_completed;
    r.digest = records_digest(ref.flow_records);
    r.check(r.completed == r.flows, "reference run left flows incomplete");
  } else if (workload == "fattree16_amrt") {
    r = run_fattree(seed, 1, traced);
  } else if (workload == "fattree16_sharded") {
    r = run_fattree(seed, kShards, traced);
  } else if (workload == "leafspine_fanout_mixed") {
    r = run_leafspine(seed, traced, counted);
  } else if (workload == "fattree16_flow") {
    r = run_flow(seed, traced);
  } else {
    usage();
    return 2;
  }
  r.workload = workload;
  r.seed = seed;
  r.traced = traced;
  r.peak_rss_mb = proc_status_mb("VmHWM");
  print_result(r);
  return r.failures.empty() ? 0 : 1;
}
