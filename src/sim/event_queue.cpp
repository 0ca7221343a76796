#include "sim/event_queue.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

namespace amrt::sim {

void EventQueue::Handle::cancel() {
  if (q_ != nullptr) q_->cancel(slot_, gen_);
}

bool EventQueue::Handle::pending() const { return q_ != nullptr && q_->pending(slot_, gen_); }

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = record(slot).next_free;
    return slot;
  }
  if (slot_count_ % kSlabSize == 0) {
    slabs_.push_back(std::make_unique<Record[]>(kSlabSize));
  }
  assert(slot_count_ < kRawFlag);  // bit 23 is the raw-lane tag
  return slot_count_++;
}

void EventQueue::recycle_slot(std::uint32_t slot) {
  Record& rec = record(slot);
  rec.cb.reset();
  rec.live = false;
  ++rec.gen;  // invalidates every outstanding Handle to this slot
  rec.next_free = free_head_;
  free_head_ = slot;
}

// The set was empty: re-anchor the window at the incoming event. The
// current bucket and its late run may still hold a fully drained prefix
// (they are cleared lazily, on advance); drop it before reusing the wheel.
void EventQueue::rebase_empty(std::int64_t when_ns) {
  buckets_[cur_].clear();
  occupied_[cur_ >> 6] &= ~(std::uint64_t{1} << (cur_ & 63));
  base_ns_ = when_ns & ~(kBucketNs - 1);
  cur_ = 0;
  drain_idx_ = 0;
  late_.clear();
  late_idx_ = 0;
}

// The drain cursor exhausted its bucket: retire it and move to the next
// non-empty one, re-anchoring the window over the far list when the near
// window is spent. Returns false when no events remain anywhere.
bool EventQueue::advance_bucket() {
  buckets_[cur_].clear();  // keeps capacity for the next lap of the wheel
  drain_idx_ = 0;
  late_.clear();
  late_idx_ = 0;
  occupied_[cur_ >> 6] &= ~(std::uint64_t{1} << (cur_ & 63));

  std::size_t w = cur_ >> 6;
  std::uint64_t word = occupied_[w];
  for (;;) {
    if (word != 0) {
      cur_ = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      sort_cursor_bucket();
      return true;
    }
    if (++w >= kWords) break;
    word = occupied_[w];
  }

  if (far_.empty()) {
    cur_ = 0;
    return false;
  }
  // Re-anchor the window at the earliest far event and re-bucket everything
  // that now falls inside it. Far events are rare (long timers), so the
  // linear partition is cheap and keeps pushes O(1).
  base_ns_ = far_min_ns_ & ~(kBucketNs - 1);
  cur_ = 0;
  std::int64_t next_min = std::numeric_limits<std::int64_t>::max();
  std::size_t keep = 0;
  for (const Entry& e : far_) {
    const std::int64_t idx = (e.when_ns - base_ns_) >> kBucketShift;
    if (idx < static_cast<std::int64_t>(kBuckets)) {
      append(static_cast<std::size_t>(idx), e);
    } else {
      far_[keep++] = e;
      if (e.when_ns < next_min) next_min = e.when_ns;
    }
  }
  far_.resize(keep);
  far_min_ns_ = next_min;
  sort_cursor_bucket();
  return true;  // the window now contains at least the old far minimum
}

// Orders the bucket the cursor just reached. Every entry was appended while
// the bucket lay ahead of the cursor, in push order — that is, in sequence
// order — so a stable sort on the timestamp alone yields (when, seq) order.
// Timestamps within a bucket differ only in their low kBucketShift bits:
// two counting passes over those bits (LSD radix) sort the bucket in linear
// time.
void EventQueue::sort_cursor_bucket() {
  std::vector<Entry>& b = buckets_[cur_];
  const std::size_t n = b.size();
  if (n < 2) return;
  constexpr int kLowBits = kBucketShift / 2;
  constexpr int kHighBits = kBucketShift - kLowBits;
  const std::int64_t start = b[0].when_ns & ~(kBucketNs - 1);
  // Reserved once in practice: a scratch grown to each larger bucket in
  // turn left heap holes worth ~0.2 MB of peak RSS on a leaf-spine run.
  if (sort_tmp_.capacity() < n) sort_tmp_.reserve(std::max(std::bit_ceil(n), kMinSortScratch));
  sort_tmp_.resize(n);
  const auto pass = [n, start](const Entry* src, Entry* dst, int shift, int bits) {
    std::array<std::uint32_t, (std::size_t{1} << kHighBits)> count{};
    const std::int64_t mask = (std::int64_t{1} << bits) - 1;
    const auto digit = [&](const Entry& e) {
      return static_cast<std::size_t>(((e.when_ns - start) >> shift) & mask);
    };
    for (std::size_t i = 0; i < n; ++i) ++count[digit(src[i])];
    std::uint32_t sum = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t k = c;
      c = sum;
      sum += k;
    }
    for (std::size_t i = 0; i < n; ++i) dst[count[digit(src[i])]++] = src[i];
  };
  pass(b.data(), sort_tmp_.data(), 0, kLowBits);
  pass(sort_tmp_.data(), b.data(), kLowBits, kHighBits);
}

EventQueue::Handle EventQueue::push(TimePoint when, Callback cb) {
  const std::uint32_t slot = alloc_slot();
  Record& rec = record(slot);
  rec.cb = std::move(cb);
  rec.live = true;
  insert_entry(when.ns(), slot);
  ++live_;
  return Handle{this, slot, rec.gen};
}

void EventQueue::cancel(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slot_count_) return;
  Record& rec = record(slot);
  if (rec.gen != gen || !rec.live) return;
  rec.live = false;
  rec.cb.reset();  // release captured state eagerly
  --live_;
}

bool EventQueue::pending(std::uint32_t slot, std::uint32_t gen) const {
  if (slot >= slot_count_) return false;
  const Record& rec = record(slot);
  return rec.gen == gen && rec.live;
}

std::optional<TimePoint> EventQueue::next_time() {
  const Entry* head = peek_live();
  if (head == nullptr) return std::nullopt;
  return TimePoint::from_ns(head->when_ns);
}

std::optional<EventQueue::Ready> EventQueue::pop() {
  const Entry* head = peek_live();
  if (head == nullptr) return std::nullopt;
  const Entry top = *head;
  consume_head();
  const std::uint32_t slot = entry_slot(top);
  --live_;
  if ((slot & kRawFlag) != 0) {
    // Slow path (tests/tools only): wrap the raw event in a callback so the
    // caller sees the uniform Ready shape.
    const RawRec r = raw_recs_[slot & ~kRawFlag];
    recycle_raw(slot & ~kRawFlag);
    return Ready{TimePoint::from_ns(top.when_ns), [r] { r.fn(r.ctx); }};
  }
  Ready out{TimePoint::from_ns(top.when_ns), std::move(record(slot).cb)};
  recycle_slot(slot);
  return out;
}

}  // namespace amrt::sim
