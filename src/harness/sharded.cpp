#include "harness/sharded.hpp"

namespace amrt::harness {

ShardedScenario::ShardedScenario(sim::ShardGroup& group, net::Network& net, net::Partition part,
                                 sim::Bandwidth reference_rate, sim::Duration base_rtt)
    : group_{group}, net_{net}, part_{std::move(part)}, merged_{reference_rate, base_rtt} {
  recorders_.reserve(part_.n_shards);
  for (unsigned i = 0; i < part_.n_shards; ++i) {
    recorders_.push_back(std::make_unique<stats::FctRecorder>(reference_rate, base_rtt));
    // Starts book at the sender, completions at the receiver — possibly on
    // another shard. merge_from pairs the halves after the run.
    if (part_.n_shards > 1) recorders_.back()->set_cross_shard(true);
  }
}

void ShardedScenario::attach_endpoints(const std::vector<net::Host*>& hosts,
                                       const EndpointMaker& make) {
  hosts_ = hosts;
  endpoints_.clear();
  endpoints_.reserve(hosts.size());
  for (net::Host* host : hosts) {
    auto ep = make(sim_of(host->id()), *host, &recorder_of(host->id()));
    endpoints_.push_back(ep.get());
    host->attach(std::move(ep));
  }
}

void ShardedScenario::schedule_starts(const std::vector<workload::GeneratedFlow>& flows) {
  for (const auto& f : flows) {
    transport::FlowSpec spec{f.id, hosts_[f.src_host]->id(), hosts_[f.dst_host]->id(), f.bytes,
                             f.start};
    transport::TransportEndpoint* src_ep = endpoints_[f.src_host];
    sched_of(spec.src).at(f.start, [src_ep, spec] { src_ep->start_flow(spec); });
  }
}

ShardedScenario::RunStatus ShardedScenario::run(const RunLimits& limits) {
  net::ShardedRunner::Config cfg;
  cfg.event_limit = limits.event_limit;
  cfg.horizon = limits.horizon;
  cfg.audit_context = limits.audit_context;
  net::ShardedRunner runner{net_, part_, group_, std::move(cfg)};
  runner.run();

  for (const auto& rec : recorders_) merged_.merge_from(*rec);

  RunStatus st;
  st.rounds = runner.rounds();
  st.event_limit_hit = runner.event_limit_hit();
  st.horizon_hit = runner.horizon_hit();
  return st;
}

}  // namespace amrt::harness
