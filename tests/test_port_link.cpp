// Unit tests for EgressPort serialization/propagation (src/net/port.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/port.hpp"
#include "sim/rng.hpp"

using namespace amrt::net;
using namespace amrt::sim;
using namespace amrt::sim::literals;

namespace {

// Records every delivered packet with its arrival time.
class SinkNode final : public Node {
 public:
  SinkNode() : Node{NodeId{99}} {}
  void handle_packet(Packet&& pkt, int port) override {
    arrivals.push_back({pkt, port});
    times.push_back(now_fn ? now_fn() : TimePoint::zero());
  }
  std::vector<std::pair<Packet, int>> arrivals;
  std::vector<TimePoint> times;
  std::function<TimePoint()> now_fn;
};

Packet data_pkt(std::uint32_t seq, std::uint32_t wire = kMtuBytes) {
  Packet p;
  p.seq = seq;
  p.type = PacketType::kData;
  p.wire_bytes = wire;
  p.payload_bytes = wire - kHeaderBytes;
  return p;
}

struct PortRig {
  Scheduler sched;
  SinkNode sink;
  EgressQueue queue;  // the port's queue and wire pool are non-owning
  WirePool wire;
  EgressPort port;

  explicit PortRig(EgressPort::Config cfg, EgressQueue q = EgressQueue::drop_tail(64))
      : queue{std::move(q)}, port{sched, cfg, queue, wire} {
    sink.now_fn = [this] { return sched.now(); };
    port.connect(sink, 3);
  }
};

}  // namespace

TEST(EgressPort, DeliversAfterSerializationPlusPropagation) {
  PortRig rig{{Bandwidth::gbps(10), 5_us}};
  rig.port.enqueue(data_pkt(0));
  rig.sched.run();
  ASSERT_EQ(rig.sink.arrivals.size(), 1u);
  // 1500B at 10G = 1.2us serialize + 5us propagate.
  EXPECT_EQ(rig.sink.times[0], TimePoint::zero() + 1200_ns + 5_us);
  EXPECT_EQ(rig.sink.arrivals[0].second, 3);  // ingress port number preserved
}

TEST(EgressPort, SerializesBackToBack) {
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}};
  rig.port.enqueue(data_pkt(0));
  rig.port.enqueue(data_pkt(1));
  rig.sched.run();
  ASSERT_EQ(rig.sink.times.size(), 2u);
  EXPECT_EQ(rig.sink.times[1] - rig.sink.times[0], 1200_ns);
}

TEST(EgressPort, PreservesFifoOrderAcrossLink) {
  PortRig rig{{Bandwidth::gbps(10), 2_us}};
  for (std::uint32_t i = 0; i < 10; ++i) rig.port.enqueue(data_pkt(i));
  rig.sched.run();
  ASSERT_EQ(rig.sink.arrivals.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(rig.sink.arrivals[i].first.seq, i);
}

TEST(EgressPort, CountsBytesAndPackets) {
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}};
  rig.port.enqueue(data_pkt(0));
  rig.port.enqueue(data_pkt(1, 500));
  rig.sched.run();
  EXPECT_EQ(rig.port.packets_sent(), 2u);
  EXPECT_EQ(rig.port.bytes_sent(), 2000u);
}

TEST(EgressPort, BusyTimeAccumulatesSerialization) {
  PortRig rig{{Bandwidth::gbps(10), 10_us}};
  rig.port.enqueue(data_pkt(0));
  rig.port.enqueue(data_pkt(1));
  rig.sched.run();
  EXPECT_EQ(rig.port.busy_time(), 2400_ns);  // propagation is not busy time
}

TEST(EgressPort, DropsSurfaceInQueueStats) {
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}, EgressQueue::drop_tail(1)};
  // While the first packet serializes, the 2nd occupies the single slot and
  // the rest drop.
  for (std::uint32_t i = 0; i < 5; ++i) rig.port.enqueue(data_pkt(i));
  rig.sched.run();
  EXPECT_GE(rig.port.queue().stats().dropped, 3u);
  EXPECT_LE(rig.sink.arrivals.size(), 2u);
}

TEST(EgressPort, MarkerSeesIdleGapState) {
  struct Probe final : DequeueMarker {
    std::vector<Duration> gaps;
    void on_dequeue(Packet&, TimePoint tx_start, TimePoint last_tx_end, Bandwidth) override {
      gaps.push_back(tx_start - last_tx_end);
    }
  };
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}};
  auto probe = std::make_unique<Probe>();
  auto* probe_ptr = probe.get();
  rig.port.add_marker(std::move(probe));

  rig.port.enqueue(data_pkt(0));
  rig.sched.run();  // first tx ends at 1.2us; the clock now reads 1.2us
  rig.sched.after(10_us, [&] { rig.port.enqueue(data_pkt(1)); });
  rig.sched.run();
  ASSERT_EQ(probe_ptr->gaps.size(), 2u);
  EXPECT_EQ(probe_ptr->gaps[0], Duration::zero());  // first packet, t=0
  // Second packet starts at 11.2us; previous tx ended at 1.2us: 10us idle.
  EXPECT_EQ(probe_ptr->gaps[1], 10_us);
}

TEST(EgressPort, JitterBoundsInterPacketSpacing) {
  EgressPort::Config cfg{Bandwidth::gbps(10), Duration::zero()};
  cfg.tx_jitter = 150_ns;
  cfg.jitter_seed = 7;
  PortRig rig{cfg};
  for (std::uint32_t i = 0; i < 50; ++i) rig.port.enqueue(data_pkt(i));
  rig.sched.run();
  ASSERT_EQ(rig.sink.times.size(), 50u);
  bool saw_jitter = false;
  for (std::size_t i = 1; i < rig.sink.times.size(); ++i) {
    const auto gap = rig.sink.times[i] - rig.sink.times[i - 1];
    EXPECT_GE(gap, 1200_ns);
    EXPECT_LE(gap, 1200_ns + 150_ns);
    saw_jitter = saw_jitter || gap > 1200_ns;
  }
  EXPECT_TRUE(saw_jitter);
}

TEST(EgressPort, JitterDrawsFollowTheSeededStream) {
  // A jittered port adds uniform_int(0, tx_jitter) ns to each transmission,
  // drawn in transmission order from one stream seeded with jitter_seed.
  // With zero propagation and a standing queue, arrival i is the running
  // sum of serialization plus draw, so every draw is checked exactly.
  EgressPort::Config cfg{Bandwidth::gbps(10), Duration::zero()};
  cfg.tx_jitter = 150_ns;
  cfg.jitter_seed = 0x5eed;
  PortRig rig{cfg};
  for (std::uint32_t i = 0; i < 50; ++i) rig.port.enqueue(data_pkt(i));
  rig.sched.run();
  ASSERT_EQ(rig.sink.times.size(), 50u);
  Rng expected{cfg.jitter_seed};
  TimePoint t = TimePoint::zero();
  for (std::size_t i = 0; i < rig.sink.times.size(); ++i) {
    t += 1200_ns + Duration::nanoseconds(expected.uniform_int(0, cfg.tx_jitter.ns()));
    EXPECT_EQ(rig.sink.times[i], t) << "transmission " << i;
  }
}

TEST(EgressPort, BlackholeDropsFollowTheSeededStream) {
  // Each enqueue on an armed port draws one bernoulli(p) from a stream
  // seeded by set_drop_prob; re-arming restarts the stream and a disarmed
  // port draws nothing.
  constexpr double kProb = 0.3;
  constexpr std::uint64_t kSeed = 11;
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}, EgressQueue::drop_tail(1024)};
  std::vector<std::uint32_t> expected;
  std::uint32_t seq = 0;
  auto send_armed = [&](int n) {
    rig.port.set_drop_prob(kProb, kSeed);
    Rng draws{kSeed};
    for (int i = 0; i < n; ++i, ++seq) {
      if (!draws.bernoulli(kProb)) expected.push_back(seq);
      rig.port.enqueue(data_pkt(seq));
    }
  };
  send_armed(200);
  rig.port.set_drop_prob(0.0, 0);
  for (int i = 0; i < 20; ++i, ++seq) {
    expected.push_back(seq);
    rig.port.enqueue(data_pkt(seq));
  }
  send_armed(200);
  rig.sched.run();
  std::vector<std::uint32_t> delivered;
  for (const auto& [pkt, port] : rig.sink.arrivals) delivered.push_back(pkt.seq);
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(rig.port.packets_faulted(), seq - expected.size());
  EXPECT_EQ(rig.port.queue().stats().dropped, 0u);
}

TEST(EgressPort, InvalidConfigRejected) {
  Scheduler sched;
  auto q = EgressQueue::drop_tail(4);
  WirePool wire;
  EXPECT_THROW(EgressPort(sched, {Bandwidth::bps(0), Duration::zero()}, q, wire),
               std::invalid_argument);
}

TEST(EgressPort, ControlPreemptsQueuedData) {
  PortRig rig{{Bandwidth::gbps(10), Duration::zero()}};
  rig.port.enqueue(data_pkt(0));  // starts transmitting immediately
  rig.port.enqueue(data_pkt(1));
  Packet g;
  g.type = PacketType::kGrant;
  g.wire_bytes = kCtrlBytes;
  g.seq = 42;
  rig.port.enqueue(std::move(g));
  rig.sched.run();
  ASSERT_EQ(rig.sink.arrivals.size(), 3u);
  EXPECT_EQ(rig.sink.arrivals[0].first.seq, 0u);  // already on the wire
  EXPECT_EQ(rig.sink.arrivals[1].first.seq, 42u); // grant jumps queued data
  EXPECT_EQ(rig.sink.arrivals[2].first.seq, 1u);
}

TEST(EgressPort, LinkDownLetsPacketsOnTheWireDeliver) {
  // 1500B at 10G serialize in 1.2us; at t=3us packets 0-2 are on the wire
  // (the third still serializing) and 3-4 wait in the queue. Taking the
  // link down flushes the queue and eats later enqueues, while the three on
  // the wire arrive at their own times and in order.
  PortRig rig{{Bandwidth::gbps(10), 50_us}};
  for (std::uint32_t i = 0; i < 5; ++i) rig.port.enqueue(data_pkt(i));
  rig.sched.at(TimePoint::zero() + 3_us, [&] {
    rig.port.set_link_up(false);
    rig.port.enqueue(data_pkt(5));
  });
  rig.sched.run();
  ASSERT_EQ(rig.sink.arrivals.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.sink.arrivals[i].first.seq, i);
    EXPECT_EQ(rig.sink.times[i], TimePoint::zero() + 1200_ns * (i + 1) + 50_us);
  }
  EXPECT_EQ(rig.port.packets_faulted(), 3u);
  EXPECT_EQ(rig.wire.in_use(), 0u);
}

TEST(EgressPort, RateChangeLeavesPacketsOnTheWireAlone) {
  // At t=2.5us packets 0-1 are on the wire and packet 2 is serializing at
  // 10G; halving the rate then only slows packet 3, which starts at 3.6us.
  PortRig rig{{Bandwidth::gbps(10), 20_us}};
  for (std::uint32_t i = 0; i < 4; ++i) rig.port.enqueue(data_pkt(i));
  rig.sched.at(TimePoint::zero() + 2500_ns, [&] { rig.port.set_rate_scale(0.5); });
  rig.sched.run();
  ASSERT_EQ(rig.sink.arrivals.size(), 4u);
  const std::vector<TimePoint> expected{
      TimePoint::zero() + 1200_ns + 20_us, TimePoint::zero() + 2400_ns + 20_us,
      TimePoint::zero() + 3600_ns + 20_us, TimePoint::zero() + 3600_ns + 2400_ns + 20_us};
  EXPECT_EQ(rig.sink.times, expected);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(rig.sink.arrivals[i].first.seq, i);
}

TEST(EgressPort, EqualTimeDeliveriesFireInTransmitOrder) {
  // Two ports into one sink. a2 and b2 arrive at the same instant; b2 left
  // its serializer first (at 52ns, a2 at 1.2us), so it is delivered first —
  // although a2's wire event is scheduled first (when a1 lands, at 5.2us;
  // b1 lands at 6.052us). Each packet keeps the event sequence number taken
  // when it was transmitted. With `extra` = 0 both wire events are pushed
  // into a wheel bucket ahead of the drain cursor; with 1us they are pushed
  // into the cursor's own bucket.
  for (const Duration extra : {Duration::zero(), Duration::microseconds(1)}) {
    Scheduler sched;
    SinkNode sink;
    sink.now_fn = [&] { return sched.now(); };
    WirePool wire;
    EgressQueue qa = EgressQueue::drop_tail(8);
    EgressQueue qb = EgressQueue::drop_tail(8);
    EgressPort a{sched, {Bandwidth::gbps(10), 4_us + extra}, qa, wire};
    EgressPort b{sched, {Bandwidth::gbps(10), 6_us + extra}, qb, wire};
    a.connect(sink, 1);
    b.connect(sink, 2);
    a.enqueue(data_pkt(1, 1500));  // 1200ns on the wire, lands at 5.2us
    a.enqueue(data_pkt(2, 1265));  // 1012ns from 1.2us, lands at 6.212us
    b.enqueue(data_pkt(1, 65));    // 52ns, lands at 6.052us
    b.enqueue(data_pkt(2, 200));   // 160ns from 52ns, lands at 6.212us
    sched.run();
    std::vector<std::pair<int, std::uint32_t>> order;
    for (const auto& [pkt, port] : sink.arrivals) order.emplace_back(port, pkt.seq);
    EXPECT_EQ(order, (std::vector<std::pair<int, std::uint32_t>>{{1, 1}, {2, 1}, {2, 2}, {1, 2}}))
        << "extra " << extra.ns() << "ns";
    ASSERT_EQ(sink.times.size(), 4u);
    EXPECT_EQ(sink.times[2], TimePoint::zero() + 6212_ns + extra);
    EXPECT_EQ(sink.times[3], sink.times[2]);
  }
}

TEST(EgressPort, WirePoolHoldsOnlyTheInFlightPeak) {
  // Two ports share one pool and burst one after the other: each puts 20
  // packets on a 50us wire. The pool cuts a cell only when its freelist is
  // empty, so it ends up with exactly as many cells as were ever on the
  // wires at once — 20, not the 40 that rings per port would hold.
  struct InFlight final : DequeueMarker {
    int* count;
    int* peak;
    InFlight(int* c, int* p) : count{c}, peak{p} {}
    void on_dequeue(Packet&, TimePoint, TimePoint, Bandwidth) override {
      *peak = std::max(*peak, ++*count);
    }
  };
  Scheduler sched;
  int in_flight = 0;
  int peak = 0;
  struct CountingSink final : Node {
    int* count;
    explicit CountingSink(int* c) : Node{NodeId{7}}, count{c} {}
    void handle_packet(Packet&&, int) override { --*count; }
  } sink{&in_flight};
  WirePool wire;
  EgressQueue qa = EgressQueue::drop_tail(64);
  EgressQueue qb = EgressQueue::drop_tail(64);
  EgressPort a{sched, {Bandwidth::gbps(10), 50_us}, qa, wire};
  EgressPort b{sched, {Bandwidth::gbps(10), 50_us}, qb, wire};
  for (EgressPort* p : {&a, &b}) {
    p->connect(sink, 0);
    p->add_marker(std::make_unique<InFlight>(&in_flight, &peak));
  }
  for (std::uint32_t i = 0; i < 20; ++i) a.enqueue(data_pkt(i));
  sched.at(TimePoint::zero() + 200_us, [&] {
    for (std::uint32_t i = 0; i < 20; ++i) b.enqueue(data_pkt(i));
  });
  sched.run();
  EXPECT_EQ(a.packets_sent() + b.packets_sent(), 40u);
  EXPECT_EQ(peak, 20);
  EXPECT_EQ(wire.cells(), 20u);
  EXPECT_EQ(wire.in_use(), 0u);
  EXPECT_EQ(in_flight, 0);
}
