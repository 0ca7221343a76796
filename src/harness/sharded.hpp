// The packet executor every harness run goes through.
//
// A scenario runs a built fabric on a sim::ShardGroup. One shard is the
// serial run: ShardGroup{seed, 1}'s master is seeded like Simulation{seed},
// run() is a plain event loop on it, and the one recorder is merged() as is,
// so a one-shard scenario is the classic serial simulation. More shards run
// the fabric under the conservative window protocol (net/partition.hpp).
//
// The scenario keeps one FctRecorder per shard (observer callbacks fire on
// the owning shard's thread, and FctRecorder is not thread-safe) and
// resolves, per host, the Simulation the host's transport endpoint must be
// constructed against — the endpoint caches that scheduler and all its
// timers then live on the host's shard. After run() the per-shard recorders
// are folded, in shard order, into one merged recorder, so the combined
// record list is deterministic for a fixed shard count.
//
// Usage (run_leaf_spine, the fuzzer and bench_scale all follow this shape):
//   sim::ShardGroup group{seed, n};
//   net::Network network{group.master()};          // build against master
//   ... build topology, derive net::Partition ...
//   harness::ShardedScenario scen{group, network, part, rate, base_rtt};
//   scen.attach_endpoints(hosts, make);             // host's shard + recorder
//   scen.schedule_starts(flows);                    // start on the sender's shard
//   scen.run({...});
//   scen.merged().completed() ...
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/partition.hpp"
#include "sim/shard.hpp"
#include "stats/fct.hpp"
#include "transport/endpoint.hpp"
#include "workload/generator.hpp"

namespace amrt::harness {

class ShardedScenario {
 public:
  ShardedScenario(sim::ShardGroup& group, net::Network& net, net::Partition part,
                  sim::Bandwidth reference_rate, sim::Duration base_rtt);

  [[nodiscard]] sim::ShardGroup& group() { return group_; }
  [[nodiscard]] const net::Partition& partition() const { return part_; }
  [[nodiscard]] unsigned shard_of(net::NodeId host) const { return part_.shard_of(host); }
  [[nodiscard]] sim::Simulation& sim_of(net::NodeId host) {
    return group_.shard(part_.shard_of(host));
  }
  [[nodiscard]] sim::Scheduler& sched_of(net::NodeId host) { return sim_of(host).scheduler(); }
  [[nodiscard]] stats::FctRecorder& recorder_of(net::NodeId host) {
    return *recorders_[part_.shard_of(host)];
  }
  // Shard `i`'s own recorder, live during the run (merged() is filled only
  // once run() returns).
  [[nodiscard]] const stats::FctRecorder& shard_recorder(unsigned i) const {
    return *recorders_[i];
  }

  // Builds each host's endpoint with make(sim_of(host), host,
  // &recorder_of(host)) and attaches it. The hosts, in this order, are what
  // schedule_starts' src_host indices refer to.
  using EndpointMaker = std::function<std::unique_ptr<transport::TransportEndpoint>(
      sim::Simulation&, net::Host&, stats::FlowObserver*)>;
  void attach_endpoints(const std::vector<net::Host*>& hosts, const EndpointMaker& make);
  // Schedules every flow's start_flow on its sender's shard, in flow order.
  void schedule_starts(const std::vector<workload::GeneratedFlow>& flows);

  struct RunLimits {
    std::uint64_t event_limit = 0;
    sim::TimePoint horizon = sim::TimePoint::max();
    std::string audit_context;  // repro line printed on a fail-fast audit abort
  };
  struct RunStatus {
    std::uint64_t rounds = 0;
    bool event_limit_hit = false;
    bool horizon_hit = false;
  };

  // Single-shot: binds the fabric to the shards and runs to global drain
  // (or a limit). Afterwards the master auditor holds the merged ledger and
  // merged() the combined flow records.
  RunStatus run(const RunLimits& limits);

  [[nodiscard]] const stats::FctRecorder& merged() const { return merged_; }
  [[nodiscard]] std::uint64_t events() const { return group_.events_processed(); }

 private:
  sim::ShardGroup& group_;
  net::Network& net_;
  net::Partition part_;
  std::vector<std::unique_ptr<stats::FctRecorder>> recorders_;  // one per shard
  stats::FctRecorder merged_;
  std::vector<net::Host*> hosts_;                        // attach_endpoints order
  std::vector<transport::TransportEndpoint*> endpoints_;  // parallel to hosts_
};

}  // namespace amrt::harness
