// Cancellable future-event set for the discrete-event engine.
//
// Events at equal timestamps fire in sequence order: every push takes the
// next number from one monotonically increasing counter, which makes every
// simulation in this repository deterministic for a fixed seed. A caller may
// also reserve a sequence number now and push the event later under it
// (`reserve_seq` + the reserved `push_raw`); the event then fires exactly
// where it would have had it been pushed at reservation time. Port wire
// pipelines (net/wire.hpp) use this to keep one pending event per busy link
// instead of one per packet in flight.
//
// Layout: event records live in fixed slabs that never move, recycled
// through a freelist. The priority structure is a circular timing wheel: a
// near window of 4096 256ns buckets that slides with the drain cursor, plus
// a min-heap (`far_`) for events more than the window ahead, moved into the
// wheel as the window reaches them. A push into a bucket ahead of the drain
// cursor is an O(1) append to the bucket's list of fixed chunks, drawn from
// one pool shared by all buckets; when the cursor reaches the bucket, its
// chunks are copied into one run, sorted once, and returned to the pool. A
// push into the cursor's own bucket goes to a short side run (`late_`) by
// ordered insert, and the cursor drains the two sorted runs as one merge.
// The bucket width keeps that side run short: most pushes land at least a
// serialization time (51ns-1.2us) ahead, and a wire pipeline schedules its
// next packet one serialization time after the one it delivers. With 2us
// buckets ~40% of all pushes went to the side run, at ~30 shifted entries
// each. The global (time, seq) firing order is exactly a heap's: buckets
// partition time, and the cursor's two runs are each totally ordered.
// Together with the small-buffer `InplaceCallback` this makes steady-state
// push/pop allocation-free — slabs and chunks are retained across the whole
// run. Shared chunks size the wheel to the entries pending at once; a
// vector per bucket keeps its own peak capacity, and at k=16 each bucket in
// turn sits next to the cursor and takes ~1-2k port wakeups.
//
// Handles are weak references carrying a generation counter: destroying a
// Handle does not cancel the event, and a Handle whose slot has been
// recycled becomes inert (cancel is a no-op, pending() is false). A Handle
// must not outlive its EventQueue. Cancellation is O(1) and lazy: a
// cancelled record keeps its bucket entry until the drain cursor reaches it
// and it is skipped, so `size()` over-counts — use `live_size()` for the
// number of events that will actually fire.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace amrt::sim {

class EventQueue {
 public:
  using Callback = InplaceCallback;

  class Handle {
   public:
    Handle() = default;
    // Cancels the event if it has not fired yet. Safe to call repeatedly.
    void cancel();
    [[nodiscard]] bool pending() const;

   private:
    friend class EventQueue;
    Handle(EventQueue* q, std::uint32_t slot, std::uint32_t gen)
        : q_{q}, slot_{slot}, gen_{gen} {}
    EventQueue* q_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Handle push(TimePoint when, Callback cb);

  // Raw lane for fire-and-forget events: a bare function pointer plus
  // context, stored in a 16-byte side record instead of a full callback
  // slab record. No Handle, no cancellation, no generation counter — made
  // for the port-wakeup event, which is 40% of all events in a congested
  // run and is never cancelled. Raw events share the wheel and the sequence
  // counter, so they interleave with regular events in exact FIFO order.
  using RawFn = void (*)(void*);
  void push_raw(TimePoint when, RawFn fn, void* ctx);
  // Takes the next sequence number without scheduling anything; a later
  // push_raw under it fires exactly where an event pushed now would. The
  // caller must push it before the queue fires anything at or past `when`
  // (so never behind the clock), and at most once.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }
  void push_raw(TimePoint when, RawFn fn, void* ctx, std::uint64_t reserved_seq);

  // Fast path: constructs the callable directly in the slab record, with no
  // intermediate InplaceCallback move. Lambdas land here; a pre-built
  // Callback takes the overload above.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Handle push(TimePoint when, F&& f) {
    const std::uint32_t slot = alloc_slot();
    Record& rec = record(slot);
    rec.cb.assign(std::forward<F>(f));
    rec.live = true;
    insert_entry(when.ns(), next_seq_++, slot);
    ++live_;
    return Handle{this, slot, rec.gen};
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  // Scheduled entries, including cancelled-but-unskipped records.
  [[nodiscard]] std::size_t size() const { return entry_count_; }
  // Events that will actually fire.
  [[nodiscard]] std::size_t live_size() const { return live_; }
  // Entries parked beyond the near window (telemetry and tests).
  [[nodiscard]] std::size_t far_size() const { return far_.size(); }
  // Timestamp of the earliest live event, if any.
  [[nodiscard]] std::optional<TimePoint> next_time();

  struct Ready {
    TimePoint when;
    Callback cb;
  };
  // Removes and returns the earliest live event.
  [[nodiscard]] std::optional<Ready> pop();

  // Fires the earliest live event if its timestamp is <= `horizon`: calls
  // `pre(when)` (the scheduler advances its clock here), then invokes the
  // callback *in place* in its slab record — no callback move — and recycles
  // the slot. Returns false if the queue is empty or the head is past the
  // horizon. This is the dispatch fast path; `pop()` stays for callers that
  // need to take ownership of the callback.
  template <typename PreFire>
  bool fire_next(TimePoint horizon, PreFire&& pre) {
    const Entry* head = peek_live();
    if (head == nullptr || head->when_ns > horizon.ns()) return false;
    // Copy before firing: the callback may push into (and reallocate) the
    // bucket the entry lives in.
    const Entry top = *head;
    consume_head();
    prefetch_head();
    audit_fire_order(top);
    const std::uint32_t slot = entry_slot(top);
    --live_;
    if ((slot & kRawFlag) != 0) {
      // Raw record recycled before the call: the callee may push_raw again.
      const RawRec r = raw_recs_[slot & ~kRawFlag];
      recycle_raw(slot & ~kRawFlag);
      pre(TimePoint::from_ns(top.when_ns));
      r.fn(r.ctx);
      return true;
    }
    Record& rec = record(slot);
    // Handles go inert before the callback runs, matching pop(): an event
    // that cancels its own handle mid-flight is a no-op. The record itself
    // stays put even if the callback pushes new events (slabs never move).
    rec.live = false;
    pre(TimePoint::from_ns(top.when_ns));
    try {
      rec.cb();
    } catch (...) {
      recycle_slot(slot);
      throw;
    }
    recycle_slot(slot);
    return true;
  }

 private:
  static constexpr std::uint32_t kSlabSize = 256;  // records per slab
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  struct Record {
    Callback cb;
    std::uint32_t gen = 0;        // bumped on every recycle; pairs with Handle
    std::uint32_t next_free = 0;  // freelist link while the slot is free
    bool live = false;            // scheduled and not cancelled/fired
  };

  // 16-byte wheel entry: the insertion sequence number (upper 40 bits, ~10^12
  // events) and the slot index (lower 24 bits, ~16M concurrent events) share
  // one word. Since sequence numbers are unique, comparing the packed word
  // for equal timestamps is exactly the FIFO tie-break — the slot bits never
  // decide an ordering.
  struct Entry {
    std::int64_t when_ns;
    std::uint64_t seq_slot;
  };
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  // Top bit of the slot field marks a raw-lane event; the remaining 23 bits
  // index `raw_recs_` instead of the callback slabs.
  static constexpr std::uint32_t kRawFlag = std::uint32_t{1} << (kSlotBits - 1);
  [[nodiscard]] static std::uint32_t entry_slot(const Entry& e) {
    return static_cast<std::uint32_t>(e.seq_slot & kSlotMask);
  }
  [[nodiscard]] static std::uint64_t pack_seq_slot(std::uint64_t seq, std::uint32_t slot) {
    assert(slot <= kSlotMask && seq < (std::uint64_t{1} << (64 - kSlotBits)));
    return (seq << kSlotBits) | slot;
  }
  // True when `a` fires after `b` (later time, or same time but inserted
  // later — FIFO among equal timestamps).
  static bool after(const Entry& a, const Entry& b) {
    if (a.when_ns != b.when_ns) return a.when_ns > b.when_ns;
    return a.seq_slot > b.seq_slot;
  }

  // Wheel geometry: 4096 buckets of 256ns cover a ~1ms near window — wider
  // than any link tx time, propagation delay, or RTT in the experiments, so
  // only long recovery backoffs ever take the far path. Finer buckets send
  // fewer pushes to the side run but spread the pending set over more
  // partly filled chunks. Bucket `b` (b = when_ns >> kBucketShift)
  // lives at wheel slot b & kWheelMask; the window holds the kBuckets
  // bucket numbers from the cursor's on.
  static constexpr int kBucketShift = 8;  // 256 ns per bucket
  static constexpr std::size_t kBuckets = 4096;
  static constexpr std::size_t kWheelMask = kBuckets - 1;
  static constexpr std::int64_t kBucketNs = std::int64_t{1} << kBucketShift;
  static constexpr std::size_t kWords = kBuckets / 64;
  static_assert(std::has_single_bit(kBuckets) && kBuckets % 64 == 0);

  [[nodiscard]] static std::int64_t bucket_of(std::int64_t when_ns) {
    return when_ns >> kBucketShift;
  }
  // far_ is a min-heap on time alone: the bucket sort restores sequence
  // order among equal timestamps once its entries reach the wheel.
  static bool later(const Entry& a, const Entry& b) { return a.when_ns > b.when_ns; }

  // The drain cursor reads its bucket as two (when, seq)-sorted runs merged
  // on the fly: the bucket itself, sorted once when the cursor reached it,
  // and `late_`, the events pushed into that bucket since. Returns the
  // earlier of the two heads (nullptr when both runs are spent) and records
  // which run it came from for consume_head().
  [[nodiscard]] const Entry* head_entry() {
    const Entry* e = drain_idx_ < run_.size() ? &run_[drain_idx_] : nullptr;
    head_late_ = late_idx_ < late_.size() && (e == nullptr || after(*e, late_[late_idx_]));
    return head_late_ ? &late_[late_idx_] : e;
  }
  // Positions the drain cursor on the earliest live entry, reclaiming
  // cancelled entries it passes; returns nullptr when no events remain. The
  // hot case — cursor already on a live entry — stays inline.
  [[nodiscard]] const Entry* peek_live() {
    for (;;) {
      const Entry* e = head_entry();
      if (e == nullptr) {
        if (!advance_bucket()) return nullptr;
        continue;
      }
      // Raw events cannot be cancelled, so they are live by construction.
      const std::uint32_t slot = entry_slot(*e);
      if ((slot & kRawFlag) != 0 || record(slot).live) return e;
      recycle_slot(slot);  // cancelled: reclaim lazily
      consume_head();
    }
  }
  void consume_head() {
    ++(head_late_ ? late_idx_ : drain_idx_);
    --entry_count_;
  }
  // Starts loading what the next fire_next will touch while the current
  // callback runs: its record, or for a raw event its context (a port, at
  // k=16 one of 6,144 spread over 1.5 MB), which is usually a miss.
  void prefetch_head() {
    const Entry* e = head_entry();
    if (e == nullptr) return;
    const std::uint32_t slot = entry_slot(*e);
    if ((slot & kRawFlag) != 0) {
      __builtin_prefetch(raw_recs_[slot & ~kRawFlag].ctx);
    } else {
      const Record& rec = record(slot);
      __builtin_prefetch(&rec);
      __builtin_prefetch(&rec.live);
    }
  }

  // Ordered insert into the cursor bucket's late run, which is sorted from
  // `late_idx_` on. Pushes mostly carry later timestamps and sequence
  // numbers than what the run already holds (a reserved one may be older),
  // so the back-to-front scan usually stops at once. It must stop at `late_idx_`:
  // the prefix behind it holds fired entries and also cancelled ones that
  // peek_live skipped, which may carry timestamps later than the new event.
  // Keeping these pushes out of the sorted bucket is what keeps them cheap:
  // at k=16 an insert into the bucket itself would shift ~250 entries.
  void insort_late(const Entry& e) {
    std::size_t pos = late_.size();
    late_.push_back(e);
    while (pos > late_idx_ && after(late_[pos - 1], e)) {
      late_[pos] = late_[pos - 1];
      --pos;
    }
    late_[pos] = e;
  }
  // A bucket ahead of the cursor stays unsorted until the cursor reaches it.
  void append(std::int64_t bucket, const Entry& e) {
    const std::size_t idx = static_cast<std::size_t>(bucket) & kWheelMask;
    ChunkList& l = lists_[idx];
    const std::uint32_t off = l.size % kChunkEntries;
    if (off == 0) {
      const std::uint32_t c = alloc_chunk();
      if (l.size == 0) {
        l.head = c;
        occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      } else {
        chunk_next_[l.tail] = c;
      }
      l.tail = c;
    }
    chunk_pool_[std::size_t{l.tail} * kChunkEntries + off] = e;
    ++l.size;
  }
  [[nodiscard]] std::uint32_t alloc_chunk() {
    if (free_chunk_ != kNoSlot) {
      const std::uint32_t c = free_chunk_;
      free_chunk_ = chunk_next_[c];
      return c;
    }
    const auto c = static_cast<std::uint32_t>(chunk_next_.size());
    chunk_next_.push_back(kNoSlot);
    chunk_pool_.resize(chunk_pool_.size() + kChunkEntries);
    return c;
  }

  void insert_entry(std::int64_t when_ns, std::uint64_t seq, std::uint32_t slot) {
    const Entry e{when_ns, pack_seq_slot(seq, slot)};
    ++entry_count_;
    if (entry_count_ == 1) [[unlikely]] {
      rebase_empty(when_ns);
    }
    const std::int64_t bucket = bucket_of(when_ns);
    const std::int64_t ahead = bucket - cur_bucket_;
    if (ahead >= static_cast<std::int64_t>(kBuckets)) [[unlikely]] {
      far_.push_back(e);
      std::push_heap(far_.begin(), far_.end(), later);
      return;
    }
    if (ahead > 0) {
      append(bucket, e);
      return;
    }
    // The cursor's bucket — or an earlier one, possible when next_time()
    // moved the cursor ahead of the clock: such an event still fires in
    // order, since the buckets between it and the cursor are empty.
    insort_late(e);
  }

  void rebase_empty(std::int64_t when_ns);
  bool advance_bucket();
  void load_cursor_bucket();

  // Audit builds check every fired entry against the one fired before it:
  // (when, seq) must strictly increase. Reserved sequence numbers make this
  // the check that an event was pushed before anything later fired.
#ifdef AMRT_AUDIT
  void audit_fire_order(const Entry& e);
  bool fired_any_ = false;
  std::int64_t last_fired_ns_ = 0;
  std::uint64_t last_fired_seq_ = 0;
#else
  static void audit_fire_order(const Entry& /*e*/) {}
#endif

  // Raw-lane side records. While free, `ctx` doubles as the freelist link
  // (stored as an index widened to a pointer-sized integer).
  struct RawRec {
    RawFn fn;
    void* ctx;
  };
  [[nodiscard]] std::uint32_t alloc_raw(RawFn fn, void* ctx) {
    std::uint32_t idx;
    if (raw_free_head_ != kNoSlot) {
      idx = raw_free_head_;
      raw_free_head_ =
          static_cast<std::uint32_t>(reinterpret_cast<std::uintptr_t>(raw_recs_[idx].ctx));
    } else {
      idx = static_cast<std::uint32_t>(raw_recs_.size());
      assert(idx < kRawFlag);
      raw_recs_.push_back(RawRec{});
    }
    raw_recs_[idx] = RawRec{fn, ctx};
    return idx;
  }
  void recycle_raw(std::uint32_t idx) {
    raw_recs_[idx].ctx = reinterpret_cast<void*>(static_cast<std::uintptr_t>(raw_free_head_));
    raw_free_head_ = idx;
  }

  [[nodiscard]] Record& record(std::uint32_t slot) {
    return slabs_[slot / kSlabSize][slot % kSlabSize];
  }
  [[nodiscard]] const Record& record(std::uint32_t slot) const {
    return slabs_[slot / kSlabSize][slot % kSlabSize];
  }
  [[nodiscard]] std::uint32_t alloc_slot();
  void recycle_slot(std::uint32_t slot);
  void cancel(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool pending(std::uint32_t slot, std::uint32_t gen) const;

  std::vector<std::unique_ptr<Record[]>> slabs_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t slot_count_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;

  // The wheel. `cur_bucket_` is the drain cursor's bucket number and `cur_`
  // its wheel slot; its entries were moved into `run_` and sorted when the
  // cursor arrived, and are drained through `drain_idx_` and, for events
  // pushed into the bucket after that, `late_idx_` into `late_`. The other
  // slots hold the next kBuckets - 1 bucket numbers in wheel order, each an
  // unsorted list of chunks in `chunk_pool_` (chunk c holds entries
  // [c * kChunkEntries, (c + 1) * kChunkEntries); `chunk_next_[c]` links it
  // to the next chunk of its bucket, or of the freelist). The bitmap marks
  // the non-empty slots. `far_` holds events past the window (a min-heap on
  // time; moved into the wheel as the cursor advances).
  static constexpr std::uint32_t kChunkEntries = 16;  // 256 B
  struct ChunkList {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    std::uint32_t size = 0;
  };
  std::array<ChunkList, kBuckets> lists_{};
  std::vector<Entry> chunk_pool_;
  std::vector<std::uint32_t> chunk_next_;
  std::uint32_t free_chunk_ = kNoSlot;
  std::array<std::uint64_t, kWords> occupied_{};
  std::vector<Entry> run_;
  std::int64_t cur_bucket_ = 0;
  std::size_t cur_ = 0;
  std::size_t drain_idx_ = 0;
  std::vector<Entry> late_;
  std::size_t late_idx_ = 0;
  bool head_late_ = false;  // which run head_entry() last returned
  std::vector<Entry> sort_tmp_;  // scratch for load_cursor_bucket()
  std::size_t entry_count_ = 0;
  std::vector<Entry> far_;

  std::vector<RawRec> raw_recs_;
  std::uint32_t raw_free_head_ = kNoSlot;
};

inline void EventQueue::push_raw(TimePoint when, RawFn fn, void* ctx) {
  push_raw(when, fn, ctx, next_seq_++);
}

inline void EventQueue::push_raw(TimePoint when, RawFn fn, void* ctx, std::uint64_t reserved_seq) {
  assert(reserved_seq < next_seq_);
  insert_entry(when.ns(), reserved_seq, alloc_raw(fn, ctx) | kRawFlag);
  ++live_;
}

}  // namespace amrt::sim
