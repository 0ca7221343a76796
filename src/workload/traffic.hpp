// Pluggable traffic engines (DESIGN.md §14).
//
// The workload layer is a three-layer stack, each layer swappable on its
// own axis:
//
//   * pair model     — who talks to whom: uniform random pairs (the legacy
//                      matrix), rack-skewed hot-rack matrices with a
//                      locality knob, or a fixed permutation;
//   * arrival model  — when flows start: Poisson arrivals (the legacy
//                      closed-loop client population) or open-loop
//                      fixed-rate clients that keep injecting at the target
//                      rate no matter how congested the fabric gets;
//   * structure      — what one arrival means: a single flow, an
//                      incast/coflow group of `coflow_width` senders into
//                      one receiver, or a front-end fan-out request (one
//                      user request → `fanout` backend response flows into
//                      the front end), every member carrying the group's
//                      `group_id`/`request_id`.
//
// Four engines compose these layers behind one interface:
//
//   kLegacy — uniform pairs + Poisson + no structure. Draw-for-draw
//             identical to the original FlowGenerator (the golden-fixture
//             gate and the fuzzer's old seeds depend on this);
//   kSkewed — the pair-model and arrival-model axes opened up, plus
//             optional coflow groups;
//   kFanout — front-end fan-out requests; per-request completion p99 is
//             the headline metric (bench_fanout);
//   kTrace  — replays a flow trace file (flow_trace.hpp) exactly; dumping
//             a synthetic schedule and replaying it reproduces the same
//             flow ids, starts and sizes bit for bit.
//
// Engines generate the whole schedule up front from the run's seeded
// stream; the harness turns GeneratedFlows into scheduled start_flow events
// exactly as before, so every engine composes with --shards (generation
// happens on the master shard before the clock starts).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "workload/cdf.hpp"
#include "workload/generator.hpp"

namespace amrt::workload {

enum class Engine : std::uint8_t { kLegacy, kSkewed, kFanout, kTrace };
enum class PairModel : std::uint8_t { kUniform, kHotRack, kPermutation };
enum class ArrivalModel : std::uint8_t { kPoisson, kFixedRate };

[[nodiscard]] const char* to_string(Engine e);
[[nodiscard]] const char* to_string(PairModel p);
[[nodiscard]] const char* to_string(ArrivalModel a);
[[nodiscard]] Engine engine_from_string(const std::string& s);
[[nodiscard]] PairModel pair_model_from_string(const std::string& s);
[[nodiscard]] ArrivalModel arrival_model_from_string(const std::string& s);

// Rack-skewed matrix knobs (PairModel::kHotRack). Hosts are grouped into
// racks of `hosts_per_rack` consecutive indices (the leaf-spine/fat-tree
// builders lay hosts out leaf-major, so index racks are physical racks).
struct SkewConfig {
  std::size_t hosts_per_rack = 8;
  double hot_rack_fraction = 0.25;  // leading ceil(f * racks) racks are hot
  double hot_weight = 0.7;          // P(src rack is hot)
  double locality = 0.3;            // P(dst lands in src's rack)
};

// Everything an engine needs beyond the base TrafficConfig. The default
// spec selects the legacy engine, whose output is byte-identical to the
// original FlowGenerator for the same rng state.
struct WorkloadSpec {
  Engine engine = Engine::kLegacy;
  PairModel pairs = PairModel::kUniform;        // kSkewed only
  ArrivalModel arrivals = ArrivalModel::kPoisson;
  SkewConfig skew{};
  // kSkewed: fraction of arrivals expanded into incast coflow groups of
  // `coflow_width` distinct senders into one receiver (group_id set,
  // request_id 0). The group's arrival gap scales with its width so the
  // offered byte load stays at TrafficConfig::load.
  double coflow_fraction = 0.0;
  std::size_t coflow_width = 8;
  // kFanout: backend responses per user request (group_id == request_id).
  std::size_t fanout = 8;
  // kFanout: fixed response size; 0 draws each response from the size CDF.
  std::uint64_t response_bytes = 0;
  // kTrace: the file to replay.
  std::string trace_path;
};

class TrafficEngine {
 public:
  virtual ~TrafficEngine() = default;
  // Flows sorted by non-decreasing start, ids 1..n, src != dst, every id
  // < cfg.n_hosts. `rng` is the run's stream; engines must draw nothing
  // outside this call.
  [[nodiscard]] virtual std::vector<GeneratedFlow> generate(const TrafficConfig& cfg,
                                                            sim::Rng& rng) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

// Builds the engine for `spec`. `sizes` may be null only for kTrace (the
// trace carries its own sizes); every synthetic engine requires it.
[[nodiscard]] std::unique_ptr<TrafficEngine> make_engine(const WorkloadSpec& spec,
                                                         const EmpiricalCdf* sizes);

// Mean inter-arrival per flow at cfg.load for flows of `mean_flow_bytes`
// (the original FlowGenerator formula), rounded to whole nanoseconds.
// Throws std::invalid_argument unless the offered load is positive.
[[nodiscard]] double mean_flow_gap_seconds(const TrafficConfig& cfg, double mean_flow_bytes);

// One-shot convenience used by the harness.
[[nodiscard]] std::vector<GeneratedFlow> generate_traffic(const WorkloadSpec& spec,
                                                          const EmpiricalCdf* sizes,
                                                          const TrafficConfig& cfg, sim::Rng& rng);

}  // namespace amrt::workload
