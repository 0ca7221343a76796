// Unit tests for the cancellable event set (src/sim/event_queue.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

using namespace amrt::sim;

namespace {
TimePoint at_ns(std::int64_t ns) { return TimePoint::from_ns(ns); }
}  // namespace

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(at_ns(30), [&] { order.push_back(3); });
  (void)q.push(at_ns(10), [&] { order.push_back(1); });
  (void)q.push(at_ns(20), [&] { order.push_back(2); });
  while (auto e = q.pop()) e->cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    (void)q.push(at_ns(100), [&order, i] { order.push_back(i); });
  }
  while (auto e = q.pop()) e->cb();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PopReturnsTimestamp) {
  EventQueue q;
  (void)q.push(at_ns(42), [] {});
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->when.ns(), 42);
}

TEST(EventQueue, EmptyPopReturnsNullopt) {
  EventQueue q;
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  auto h = q.push(at_ns(10), [&] { ++fired; });
  h.cancel();
  while (auto e = q.pop()) e->cb();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelledEventSkippedButOthersFire) {
  EventQueue q;
  std::vector<int> order;
  auto h1 = q.push(at_ns(10), [&] { order.push_back(1); });
  (void)q.push(at_ns(20), [&] { order.push_back(2); });
  h1.cancel();
  while (auto e = q.pop()) e->cb();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  auto h = q.push(at_ns(10), [] {});
  h.cancel();
  h.cancel();  // no crash, no effect
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, PendingReflectsLifecycle) {
  EventQueue q;
  auto h = q.push(at_ns(10), [] {});
  EXPECT_TRUE(h.pending());
  (void)q.pop();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, DefaultHandleIsNotPending) {
  EventQueue::Handle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.push(at_ns(10), [] {});
  (void)q.push(at_ns(20), [] {});
  h.cancel();
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(q.next_time()->ns(), 20);
}

TEST(EventQueue, EmptyAccountsForCancellations) {
  EventQueue q;
  auto h = q.push(at_ns(10), [] {});
  EXPECT_FALSE(q.empty());
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyInterleavedPushesAndPops) {
  EventQueue q;
  std::int64_t last = -1;
  bool monotonic = true;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) {
      (void)q.push(at_ns(round * 10 + (i * 7) % 10), [] {});
    }
    // Drain half each round; order must stay globally monotonic.
    for (int i = 0; i < 5; ++i) {
      auto e = q.pop();
      ASSERT_TRUE(e.has_value());
      monotonic = monotonic && e->when.ns() >= last;
      last = e->when.ns();
    }
  }
  EXPECT_TRUE(monotonic);
}

// A cancelled entry that next_time() skipped stays in the drained prefix of
// the cursor's bucket. An event pushed afterwards with an earlier timestamp
// must still fire at its own time, not slide behind the cursor.
TEST(EventQueue, PushAfterSkippedCancelledEntryFiresAtItsOwnTime) {
  EventQueue q;
  std::vector<std::pair<char, std::int64_t>> fired;
  auto push = [&](char name, std::int64_t t) {
    return q.push(at_ns(t), [&fired, name, t] { fired.emplace_back(name, t); });
  };
  (void)push('X', 1000);
  auto a = push('A', 1500);
  (void)push('C', 1800);
  a.cancel();
  ASSERT_TRUE(q.fire_next(TimePoint::max(), [](TimePoint) {}));
  ASSERT_EQ(q.next_time()->ns(), 1800);  // skips the cancelled A
  (void)push('D', 1200);
  EXPECT_EQ(q.next_time()->ns(), 1200);
  std::vector<std::int64_t> times;
  while (q.fire_next(TimePoint::max(), [&](TimePoint when) { times.push_back(when.ns()); })) {
  }
  EXPECT_EQ(times, (std::vector<std::int64_t>{1200, 1800}));
  EXPECT_EQ(fired, (std::vector<std::pair<char, std::int64_t>>{{'X', 1000}, {'D', 1200},
                                                              {'C', 1800}}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0U);
}

namespace {

// Differential driver: runs EventQueue beside a reference event set — an
// ordered set on (time, push order) with cancellation — and checks that
// both fire the same event at the same time on every step. Some callbacks
// push a follow-up event while they run, as simulation callbacks do. Sends
// on wires model port wire pipelines: each send reserves a sequence number
// at once, but only the wire's head is pushed, under its reserved number,
// when the cell before it fires.
class DiffDriver {
 public:
  struct Mix {
    int push = 0;      // weights of the operations
    int push_raw = 0;
    int cancel = 0;
    int next_time = 0;
    int fire_horizon = 0;
    int fire_all = 0;
    int pop = 0;
    int send = 0;
  };
  // Delay of a newly pushed event, drawn by the test from its shape.
  using DelayFn = std::int64_t (*)(std::mt19937_64&, bool raw);

  DiffDriver(std::uint64_t seed, DelayFn delay, std::size_t wires = 0)
      : rng_{seed}, delay_{delay}, wires_(wires) {
    for (Wire& w : wires_) w.d = this;
  }

  void push(bool raw) {
    const std::int64_t when = now_ + delay_(rng_, raw);
    const std::uint64_t id = when_.size();
    when_.push_back(when);
    fired_.push_back(0);
    raw_.push_back(raw);
    ref_.emplace(when, id);
    if (raw) {
      handles_.emplace_back();
      raw_tags_.push_back(RawTag{this, id});
      q_.push_raw(at_ns(when), &DiffDriver::on_raw, &raw_tags_.back());
    } else {
      handles_.push_back(q_.push(at_ns(when), [this, id] { on_fire(id); }));
    }
  }

  // Puts an event on a random wire, due after `delay_` and strictly after
  // the wire's last cell, as deliveries along one link are.
  void send() {
    if (wires_.empty()) return push(false);
    Wire& w = wires_[rng_() % wires_.size()];
    const std::int64_t when = std::max(now_ + delay_(rng_, false), w.last + 1);
    w.last = when;
    const std::uint64_t id = when_.size();
    when_.push_back(when);
    fired_.push_back(0);
    raw_.push_back(true);  // not cancellable
    handles_.emplace_back();
    ref_.emplace(when, id);
    w.cells.push_back(Cell{when, id, q_.reserve_seq()});
    if (w.cells.size() == 1) q_.push_raw(at_ns(when), &DiffDriver::on_wire, &w, w.cells.front().seq);
  }

  // Cancels one of the last 4096 pushes, as timers are mostly cancelled
  // soon after they are armed; a no-op if it fired, was cancelled, or went
  // onto the raw lane.
  void cancel_random() {
    if (when_.empty()) return;
    const std::uint64_t recent = std::min<std::uint64_t>(when_.size(), 4096);
    const std::uint64_t id = when_.size() - 1 - rng_() % recent;
    const bool was_pending = ref_.count({when_[id], id}) != 0;
    if (handles_[id].pending() != (was_pending && !raw_[id])) {
      fail("pending() disagrees with the reference for event " + std::to_string(id));
    }
    handles_[id].cancel();
    if (was_pending && !raw_[id]) {
      ref_.erase({when_[id], id});
      cancelled_.insert(id);
    }
  }

  void check_next_time() {
    const auto t = q_.next_time();
    if (ref_.empty() != !t.has_value() || (t && t->ns() != ref_.begin()->first)) {
      fail("next_time() disagrees with the reference");
    }
  }

  // Fires the head if it is at or before `horizon`, as the scheduler does.
  void fire(std::int64_t horizon) {
    const bool expect = !ref_.empty() && ref_.begin()->first <= horizon;
    const std::uint64_t expected = expect ? ref_.begin()->second : kNone;
    if (expect) ref_.erase(ref_.begin());
    fired_id_ = kNone;
    std::int64_t when = -1;
    const bool fired = q_.fire_next(at_ns(horizon), [&](TimePoint t) {
      when = t.ns();
      now_ = t.ns();
    });
    if (fired != expect || fired_id_ != expected || (expect && when != when_[expected])) {
      fail("fire_next(" + std::to_string(horizon) + ") fired event " +
           std::to_string(fired_id_) + " at " + std::to_string(when) + ", reference " +
           std::to_string(expected));
    }
  }

  void pop() {
    const bool expect = !ref_.empty();
    const std::uint64_t expected = expect ? ref_.begin()->second : kNone;
    if (expect) ref_.erase(ref_.begin());
    fired_id_ = kNone;
    auto e = q_.pop();
    if (e.has_value() != expect) return fail("pop() disagrees with the reference");
    if (!e) return;
    now_ = e->when.ns();
    e->cb();
    if (fired_id_ != expected || e->when.ns() != when_[expected]) {
      fail("pop() returned the wrong event");
    }
  }

  void step(const Mix& m) {
    const int total =
        m.push + m.push_raw + m.cancel + m.next_time + m.fire_horizon + m.fire_all + m.pop +
        m.send;
    int r = static_cast<int>(rng_() % static_cast<std::uint64_t>(total));
    if ((r -= m.push) < 0) return push(false);
    if ((r -= m.push_raw) < 0) return push(true);
    if ((r -= m.cancel) < 0) return cancel_random();
    if ((r -= m.next_time) < 0) return check_next_time();
    if ((r -= m.fire_horizon) < 0) {
      return fire(now_ + static_cast<std::int64_t>(rng_() % (2 * horizon_span_ + 1)));
    }
    if ((r -= m.fire_all) < 0) return fire(TimePoint::max().ns());
    if ((r -= m.pop) < 0) return pop();
    send();
  }

  // Fires everything left, then checks every push fired exactly once or
  // was cancelled.
  void finish() {
    while (!ref_.empty() && error_.empty()) fire(TimePoint::max().ns());
    if (!q_.empty() || q_.size() != 0 || q_.next_time().has_value()) {
      fail("queue not empty after the reference drained");
    }
    for (std::uint64_t id = 0; id < when_.size(); ++id) {
      const int want = cancelled_.count(id) != 0 ? 0 : 1;
      if (fired_[id] != want) {
        fail("event " + std::to_string(id) + " fired " + std::to_string(fired_[id]) + " times");
      }
    }
  }

  void set_horizon_span(std::int64_t ns) { horizon_span_ = ns; }
  // Re-pushes a follow-up from inside every `every`-th callback (0 = never).
  void set_chain(std::uint64_t every) { chain_every_ = every; }
  [[nodiscard]] std::size_t pending() const { return ref_.size(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::int64_t now() const { return now_; }
  [[nodiscard]] std::size_t far_size() const { return q_.far_size(); }

 private:
  static constexpr std::uint64_t kNone = UINT64_MAX;
  struct RawTag {
    DiffDriver* d;
    std::uint64_t id;
  };
  static void on_raw(void* ctx) {
    auto* tag = static_cast<RawTag*>(ctx);
    tag->d->on_fire(tag->id);
  }
  struct Cell {
    std::int64_t when;
    std::uint64_t id;
    std::uint64_t seq;
  };
  struct Wire {
    DiffDriver* d = nullptr;
    std::deque<Cell> cells;
    std::int64_t last = -1;
  };
  // The head cell's event: fires it, then pushes the next cell under the
  // sequence number it reserved.
  static void on_wire(void* ctx) {
    auto* w = static_cast<Wire*>(ctx);
    const Cell head = w->cells.front();
    w->cells.pop_front();
    w->d->on_fire(head.id);
    if (!w->cells.empty()) {
      const Cell& next = w->cells.front();
      w->d->q_.push_raw(at_ns(next.when), &DiffDriver::on_wire, w, next.seq);
    }
  }
  void on_fire(std::uint64_t id) {
    ++fired_[id];
    fired_id_ = id;
    if (chain_every_ != 0 && id % chain_every_ == 0) push(id % 2 == 0);
  }
  void fail(const std::string& msg) {
    if (error_.empty()) error_ = msg;
  }

  EventQueue q_;
  std::set<std::pair<std::int64_t, std::uint64_t>> ref_;
  std::vector<std::int64_t> when_;
  std::vector<int> fired_;
  std::vector<bool> raw_;
  std::vector<EventQueue::Handle> handles_;
  std::deque<RawTag> raw_tags_;
  std::set<std::uint64_t> cancelled_;
  std::mt19937_64 rng_;
  DelayFn delay_;
  std::vector<Wire> wires_;
  std::int64_t now_ = 0;
  std::int64_t horizon_span_ = 2000;
  std::uint64_t chain_every_ = 0;
  std::uint64_t fired_id_ = kNone;
  std::string error_;
};

}  // namespace

// A handful of events packed into a few wheel buckets, with coarse
// timestamps (many equal-ns ties), heavy cancellation and next_time() calls
// between horizon-limited fires: the pattern that leaves skipped cancelled
// entries behind the drain cursor.
TEST(EventQueueDifferential, DenseBucketsWithCancellation) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    DiffDriver d(seed, [](std::mt19937_64& rng, bool) {
      return static_cast<std::int64_t>(rng() % 60) * 100;  // 0..5.9us, 100ns grid
    });
    d.set_chain(5);
    const DiffDriver::Mix mix{.push = 30, .push_raw = 8, .cancel = 15, .next_time = 15,
                              .fire_horizon = 25, .fire_all = 4, .pop = 3};
    for (int i = 0; i < 20000 && d.error().empty(); ++i) d.step(mix);
    d.finish();
    ASSERT_EQ(d.error(), "") << "seed " << seed;
  }
}

// The load of a k=16 fat-tree: tens of thousands pending, packet deliveries
// ~101us ahead, port wakeups on the raw lane 1.2us ahead, events inside the
// current bucket on a 100ns grid (equal-ns ties, some at the current
// instant), retransmission timers past the 1ms near window, cancellation of
// recent events, and horizon-limited fires interleaved with next_time() as
// the sharded coordinator issues them.
TEST(EventQueueDifferential, FatTreeShapedLoad) {
  DiffDriver d(16, [](std::mt19937_64& rng, bool raw) -> std::int64_t {
    if (raw) return 1'200;  // port wakeup
    const std::uint64_t r = rng() % 100;
    if (r < 60) return 101'000 + static_cast<std::int64_t>(rng() % 40) * 50;  // delivery
    if (r < 90) return static_cast<std::int64_t>(rng() % 40) * 100;           // same bucket
    return 2'000'000 + static_cast<std::int64_t>(rng() % 3'000'000);          // far timer
  });
  d.set_chain(3);
  d.set_horizon_span(3000);
  const DiffDriver::Mix fill{.push = 3, .push_raw = 1};
  while (d.pending() < 20000) d.step(fill);
  // Horizon-limited fires often find nothing due, so a fire past the
  // horizon holds the pending set near its target.
  const DiffDriver::Mix steady{.push = 30, .push_raw = 12, .cancel = 8, .next_time = 10,
                               .fire_horizon = 30, .fire_all = 12, .pop = 1};
  for (int i = 0; i < 600000 && d.error().empty(); ++i) {
    if (d.pending() > 20000) {
      d.fire(TimePoint::max().ns());
    } else {
      d.step(steady);
    }
  }
  ASSERT_EQ(d.error(), "");
  EXPECT_GT(d.pending(), 15000U);
  EXPECT_GT(d.now(), 1'100'000);  // the near window re-anchored under load
  d.finish();
  EXPECT_EQ(d.error(), "");
}

// Many laps of the 1ms wheel under a k=16-like load, with most events on
// wires: each send reserves its sequence number when it is made, and its
// event is pushed only when the cell ahead of it on the same wire fires —
// often into a bucket that already holds later-numbered entries at the same
// instant (deliveries sit on a 50ns grid). Every delay stays under 996us,
// which is inside the window wherever the cursor sits in its bucket, so the
// far list must stay empty on every lap: the window slides with the cursor.
// A second pass adds timers past the window, so reserved-sequence events
// and far entries meet in the buckets the far heap spills into.
TEST(EventQueueDifferential, ManyLapsWithReservedSequenceNumbers) {
  for (const bool far_timers : {false, true}) {
    // Deliveries 101us ahead on a 50ns grid, raw wakeups, same-bucket
    // events, and either timers just inside the window or past it.
    const auto near_window = [](std::mt19937_64& rng, bool raw) -> std::int64_t {
      if (raw) return 1'200;
      const std::uint64_t r = rng() % 100;
      if (r < 80) return 101'000 + static_cast<std::int64_t>(rng() % 40) * 50;
      if (r < 95) return static_cast<std::int64_t>(rng() % 40) * 100;
      return 900'000 + static_cast<std::int64_t>(rng() % 1'920) * 50;  // < 996us
    };
    const auto past_window = [](std::mt19937_64& rng, bool raw) -> std::int64_t {
      if (raw) return 1'200;
      const std::uint64_t r = rng() % 100;
      if (r < 80) return 101'000 + static_cast<std::int64_t>(rng() % 40) * 50;
      if (r < 95) return static_cast<std::int64_t>(rng() % 40) * 100;
      return 1'000'000 + static_cast<std::int64_t>(rng() % 40) * 50'000;
    };
    DiffDriver d(far_timers ? 32 : 31,
                 far_timers ? DiffDriver::DelayFn{past_window} : DiffDriver::DelayFn{near_window},
                 512);
    d.set_chain(4);
    d.set_horizon_span(3000);
    const DiffDriver::Mix fill{.push = 1, .push_raw = 1, .send = 6};
    while (d.pending() < 8000) d.step(fill);
    const DiffDriver::Mix steady{.push = 6, .push_raw = 10, .cancel = 6, .next_time = 8,
                                 .fire_horizon = 20, .fire_all = 20, .pop = 1, .send = 30};
    std::size_t far_peak = 0;
    for (int i = 0; i < 2'000'000 && d.error().empty() && d.now() < 25'000'000; ++i) {
      if (d.pending() > 8000) {
        d.fire(TimePoint::max().ns());
      } else {
        d.step(steady);
      }
      far_peak = std::max(far_peak, d.far_size());
    }
    ASSERT_EQ(d.error(), "") << "far timers " << far_timers;
    EXPECT_GT(d.now(), 20'000'000) << "far timers " << far_timers;  // 20+ laps
    if (far_timers) {
      EXPECT_GT(far_peak, 0U);
    } else {
      EXPECT_EQ(far_peak, 0U);
    }
    d.finish();
    EXPECT_EQ(d.error(), "") << "far timers " << far_timers;
  }
}
