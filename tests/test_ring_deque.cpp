// Differential tests for net::RingDeque (src/net/ring_deque.hpp) against
// std::deque: every operation the hot path uses, across every growth step
// from the initial capacity, with the head both at slot 0 and wrapped.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <string>

#include "net/ring_deque.hpp"

using amrt::net::RingDeque;

namespace {

// Strings rather than integers, so a move that leaves a stale or moved-from
// (empty) element in a live slot shows up as a wrong value.
std::string value(std::uint64_t i) { return std::to_string(i); }

void expect_same(const RingDeque<std::string>& ring, const std::deque<std::string>& ref) {
  ASSERT_EQ(ring.size(), ref.size());
  ASSERT_EQ(ring.empty(), ref.empty());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ring[i], ref[i]) << "index " << i;
  }
  if (!ref.empty()) {
    ASSERT_EQ(ring.front(), ref.front());
  }
}

constexpr std::size_t kLargestStep = 512;

}  // namespace

TEST(RingDeque, GrowsThroughEveryStepWithTheHeadWrapped) {
  // For each capacity C on the doubling ladder and each head offset, fill
  // the ring to exactly C with its head at `offset` (pop from the front,
  // refill at the back), then push once more: the grow must unwrap the
  // elements in order.
  for (std::size_t cap = RingDeque<std::string>::kInitialCapacity; cap <= kLargestStep; cap *= 2) {
    for (std::size_t offset = 0; offset < cap; offset += (cap <= 16 ? 1 : cap / 8 + 1)) {
      SCOPED_TRACE("cap " + std::to_string(cap) + " offset " + std::to_string(offset));
      RingDeque<std::string> ring;
      std::deque<std::string> ref;
      std::uint64_t next = 0;
      for (std::size_t i = 0; i < cap; ++i) {
        ring.push_back(value(next));
        ref.push_back(value(next++));
      }
      for (std::size_t i = 0; i < offset; ++i) {
        ASSERT_EQ(ring.pop_front(), ref.front());
        ref.pop_front();
        ring.push_back(value(next));
        ref.push_back(value(next++));
      }
      expect_same(ring, ref);
      ring.push_back(value(next));
      ref.push_back(value(next++));
      expect_same(ring, ref);
    }
  }
}

TEST(RingDeque, PushFrontWrapsAndGrows) {
  // push_front on an empty ring wraps the head to the last slot at once;
  // growing from there must keep front-pushed and back-pushed elements in
  // their deque order.
  RingDeque<std::string> ring;
  std::deque<std::string> ref;
  for (std::uint64_t i = 0; i < 2 * kLargestStep; ++i) {
    if (i % 3 == 0) {
      ring.push_back(value(i));
      ref.push_back(value(i));
    } else {
      ring.push_front(value(i));
      ref.push_front(value(i));
    }
    expect_same(ring, ref);
  }
}

TEST(RingDeque, RandomMixMatchesStdDeque) {
  // Seeded random mixes of every operation. Phases bias toward growth or
  // drain so the size sweeps up and down through the doubling steps while
  // the head wanders around the buffer.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng{seed};
    RingDeque<std::string> ring;
    std::deque<std::string> ref;
    std::uint64_t next = 0;
    for (int op = 0; op < 4000; ++op) {
      const bool growing = (op / 500) % 2 == 0;
      const auto roll = static_cast<int>(rng() % 100);
      if (roll < (growing ? 40 : 15)) {
        ring.push_back(value(next));
        ref.push_back(value(next++));
      } else if (roll < (growing ? 55 : 25)) {
        ring.push_front(value(next));
        ref.push_front(value(next++));
      } else if (roll < 85) {
        if (ref.empty()) continue;
        ASSERT_EQ(ring.pop_front(), ref.front()) << "seed " << seed << " op " << op;
        ref.pop_front();
      } else if (roll < 93) {
        if (ref.empty()) continue;
        const std::size_t i = rng() % ref.size();
        ring.erase(i);
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        if (ref.empty()) continue;
        const std::size_t i = rng() % ref.size();
        ASSERT_EQ(ring[i], ref[i]) << "seed " << seed << " op " << op;
        ring[i] = value(next);
        ref[i] = value(next++);
      }
      if (op % 50 == 0) expect_same(ring, ref);
    }
    expect_same(ring, ref);
  }
}
