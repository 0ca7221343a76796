#include "sim/event_queue.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
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
// cursor's run and late run may still hold a fully drained prefix (they are
// cleared lazily, on advance); drop it before reusing the wheel.
void EventQueue::rebase_empty(std::int64_t when_ns) {
  run_.clear();
  cur_bucket_ = bucket_of(when_ns);
  cur_ = static_cast<std::size_t>(cur_bucket_) & kWheelMask;
  drain_idx_ = 0;
  late_.clear();
  late_idx_ = 0;
}

// The drain cursor exhausted its bucket: retire it and move to the earliest
// remaining bucket — the next occupied wheel slot in wheel order, or the
// far heap's minimum if that comes first. Moving the cursor slides the
// window with it, so far entries the window now covers join the wheel
// before the new bucket is sorted. Returns false when no events remain.
bool EventQueue::advance_bucket() {
  run_.clear();
  drain_idx_ = 0;
  late_.clear();
  late_idx_ = 0;

  std::int64_t next = std::numeric_limits<std::int64_t>::max();
  // Scan the bitmap from the slot after the cursor, wrapping once; the
  // first word is revisited last for the slots before the cursor.
  const std::size_t from = (cur_ + 1) & kWheelMask;
  std::size_t w = from >> 6;
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (from & 63));
  for (std::size_t n = 0; n <= kWords; ++n) {
    if (word != 0) {
      const std::size_t idx = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      next = cur_bucket_ + static_cast<std::int64_t>((idx - cur_) & kWheelMask);
      break;
    }
    w = (w + 1) % kWords;
    word = occupied_[w];
  }
  if (!far_.empty()) next = std::min(next, bucket_of(far_.front().when_ns));
  if (next == std::numeric_limits<std::int64_t>::max()) return false;

  cur_bucket_ = next;
  cur_ = static_cast<std::size_t>(next) & kWheelMask;
  while (!far_.empty() &&
         bucket_of(far_.front().when_ns) - cur_bucket_ < static_cast<std::int64_t>(kBuckets)) {
    std::pop_heap(far_.begin(), far_.end(), later);
    append(bucket_of(far_.back().when_ns), far_.back());
    far_.pop_back();
  }
  load_cursor_bucket();
  return true;
}

// Moves the bucket the cursor just reached into `run_`, returning its
// chunks to the pool, and orders it. Timestamps within a bucket differ only
// in their low kBucketShift bits: two counting passes over those bits (LSD
// radix) sort it by time in linear time, stably. Entries
// are appended mostly in sequence order, so equal timestamps are mostly in
// order already; the exceptions — entries pushed under a reserved sequence
// number, and far entries, which leave their heap in time order only — are
// put in place by an insertion pass over each run of equal timestamps.
// Those runs are almost always one entry long.
void EventQueue::load_cursor_bucket() {
  ChunkList& l = lists_[cur_];
  occupied_[cur_ >> 6] &= ~(std::uint64_t{1} << (cur_ & 63));
  for (std::uint32_t c = l.head, left = l.size; left != 0;) {
    const std::uint32_t take = std::min(left, kChunkEntries);
    const Entry* first = &chunk_pool_[std::size_t{c} * kChunkEntries];
    run_.insert(run_.end(), first, first + take);
    left -= take;
    const std::uint32_t next = chunk_next_[c];
    chunk_next_[c] = free_chunk_;
    free_chunk_ = c;
    c = next;
  }
  l = ChunkList{};

  std::vector<Entry>& b = run_;
  const std::size_t n = b.size();
  if (n < 2) return;
  constexpr int kLowBits = kBucketShift / 2;
  constexpr int kHighBits = kBucketShift - kLowBits;
  const std::int64_t start = b[0].when_ns & ~(kBucketNs - 1);
  // Grown in powers of two, so a run reallocates it a handful of times:
  // 256 ns buckets peak at a few hundred entries.
  if (sort_tmp_.capacity() < n) sort_tmp_.reserve(std::bit_ceil(n));
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
  for (std::size_t i = 1; i < n; ++i) {
    if (b[i].when_ns != b[i - 1].when_ns || b[i].seq_slot > b[i - 1].seq_slot) continue;
    const Entry e = b[i];
    std::size_t pos = i;
    while (pos > 0 && after(b[pos - 1], e)) {
      b[pos] = b[pos - 1];
      --pos;
    }
    b[pos] = e;
  }
}

#ifdef AMRT_AUDIT
void EventQueue::audit_fire_order(const Entry& e) {
  const std::uint64_t seq = e.seq_slot >> kSlotBits;
  if (fired_any_ && (e.when_ns < last_fired_ns_ ||
                     (e.when_ns == last_fired_ns_ && seq <= last_fired_seq_))) {
    std::fprintf(stderr,
                 "AMRT audit violation [event-order]: fired (%lld ns, seq %llu) after "
                 "(%lld ns, seq %llu)\n",
                 static_cast<long long>(e.when_ns), static_cast<unsigned long long>(seq),
                 static_cast<long long>(last_fired_ns_),
                 static_cast<unsigned long long>(last_fired_seq_));
    std::abort();
  }
  fired_any_ = true;
  last_fired_ns_ = e.when_ns;
  last_fired_seq_ = seq;
}
#endif

EventQueue::Handle EventQueue::push(TimePoint when, Callback cb) {
  const std::uint32_t slot = alloc_slot();
  Record& rec = record(slot);
  rec.cb = std::move(cb);
  rec.live = true;
  insert_entry(when.ns(), next_seq_++, slot);
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
  audit_fire_order(top);
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
