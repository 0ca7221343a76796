// The egress queue.
//
// Every egress port owns one EgressQueue: a strict-priority *control band*
// (grants, tokens, pulls, RTS, and NDP's trimmed headers) that all
// receiver-driven designs rely on — credit packets must not starve behind
// data or the grant clock collapses — over one or more FIFO data bands that
// share a packet limit. The four shapes the paper's switches use differ only
// in their band count and in what happens to a data packet that arrives at a
// full data band:
//
//   drop_tail       — one band; drop the arrival (pHost/AMRT switch ports
//                     per §6, and every host NIC)
//   trimming        — one band; cut the payload and promote the 64B header
//                     into the control band (NDP)
//   selective_drop  — one band; sacrifice blind unscheduled packets first
//                     (Aeolus, cited as [11])
//   strict_priority — N bands selected by Packet::priority, drop the arrival
//                     (Homa / PIAS)
//
// The class is concrete and non-virtual; the admission policy is a private
// enum consulted only on the full-band path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "audit/hooks.hpp"
#include "net/packet.hpp"
#include "net/ring_deque.hpp"

namespace amrt::net {

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t trimmed = 0;
  std::size_t max_data_pkts = 0;     // high-water mark of the data band
  std::uint64_t data_bytes_in = 0;   // accepted data-band bytes
};

class EgressQueue final {
 public:
  // Plain FIFO holding at most `capacity_pkts` data packets.
  [[nodiscard]] static EgressQueue drop_tail(std::size_t capacity_pkts) {
    return EgressQueue{Admission::kDropTail, 1, capacity_pkts};
  }
  // NDP: beyond `threshold_pkts` data packets (NDP uses 8), payloads are cut
  // and the header rides the control band, so the receiver learns of the
  // loss one RTT faster than a timeout. Trims count as trims, never drops.
  [[nodiscard]] static EgressQueue trimming(std::size_t threshold_pkts) {
    return EgressQueue{Admission::kTrim, 1, threshold_pkts};
  }
  // Aeolus-style selective dropping (Hu et al., APNet'18 — cited as [11]):
  // when the data band is full, blind *unscheduled* packets are sacrificed
  // first so that granted (scheduled) traffic stays lossless. An arriving
  // scheduled packet evicts the youngest queued unscheduled packet; an
  // arriving unscheduled packet is dropped outright. Combines with AMRT's
  // small-threshold discipline (Section 6) to protect the grant clock.
  [[nodiscard]] static EgressQueue selective_drop(std::size_t capacity_pkts) {
    return EgressQueue{Admission::kSelectiveDrop, 1, capacity_pkts};
  }
  // `bands` priority levels (0 is treated as 1; out-of-range priorities use
  // the last band) sharing `capacity_pkts` data packets.
  [[nodiscard]] static EgressQueue strict_priority(std::size_t bands, std::size_t capacity_pkts) {
    return EgressQueue{Admission::kDropTail, bands == 0 ? 1 : bands, capacity_pkts};
  }

  // Consumes the packet: accepted into a band, trimmed, or dropped.
  inline void enqueue(Packet&& pkt);
  // Control band first, then the data bands in priority order.
  [[nodiscard]] inline std::optional<Packet> dequeue();

  [[nodiscard]] std::size_t control_pkts() const { return control_.size(); }
  [[nodiscard]] std::size_t data_pkts() const { return top_band_.size() + lower_pkts_; }
  [[nodiscard]] std::size_t total_pkts() const { return control_.size() + data_pkts(); }
  [[nodiscard]] bool empty() const { return total_pkts() == 0; }
  [[nodiscard]] const QueueStats& stats() const { return stats_; }

  // Link failure (src/fault): every queued packet — control band included —
  // is discarded through the admitted-drop accounting, so the stats identity
  // and the audit shadow stay closed. Returns the number of packets flushed.
  inline std::size_t flush_faulted();

  // Attaches the run's invariant auditor under a dense shadow slot (Network
  // binds each arena queue with its port-pool slot; standalone tests pick
  // any small integer). A no-op in builds without AMRT_AUDIT.
  void audit_bind(audit::Auditor* a, std::uint32_t slot) {
#ifdef AMRT_AUDIT
    audit_ = a;
    audit_slot_ = slot;
#else
    (void)a;
    (void)slot;
#endif
  }

 private:
  // What a data packet arriving at a full data band does.
  enum class Admission : std::uint8_t { kDropTail, kTrim, kSelectiveDrop };

  EgressQueue(Admission admission, std::size_t bands, std::size_t limit_pkts)
      : lower_bands_(bands - 1), limit_pkts_{limit_pkts}, admission_{admission} {}

  [[nodiscard]] inline std::optional<Packet> pop_data();
  // The full-band path. Returns true if `pkt` was admitted into a data band.
  inline bool admit_when_full(Packet&& pkt);
  // Selective drop at a full band: the one O(depth) operation, kept cold.
  bool evict_unscheduled_for(Packet&& pkt);

  // --- instrumented loss/trim choke points ---------------------------------
  // Every way a packet can leave a queue other than dequeue() goes through
  // exactly one of these three helpers, so the drop/trim statistics and the
  // audit build's byte accounting cannot drift apart per admission policy.

  // Refuses an arriving packet at the data band. Returns false so callers
  // can `return drop_data(...)` from the admission path.
  bool drop_data(Packet&& pkt, audit::DropReason reason) {
    ++stats_.dropped;
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) audit_->on_drop(audit::info_of(pkt), reason);
#endif
    (void)pkt;
    (void)reason;
    return false;
  }

  // Evicts a packet that was already admitted (selective drop, link flush):
  // the occupancy shadow must shrink too.
  void drop_admitted(Packet&& pkt, audit::DropReason reason) {
    ++stats_.dropped;
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) {
      audit_->on_queue_unadmit(audit_slot_, pkt.wire_bytes);
      audit_->on_drop(audit::info_of(pkt), reason);
    }
#endif
    (void)pkt;
    (void)reason;
  }

  // NDP trim: cuts the payload and promotes the 64B header into the control
  // band. The byte shadow records the header at its post-trim size — the
  // 1500B payload leaves the accounting here, attributed as a trim.
  void trim_to_control(Packet&& pkt) {
    const std::uint32_t removed = pkt.payload_bytes;
    pkt.trimmed = true;
    pkt.payload_bytes = 0;
    pkt.wire_bytes = kCtrlBytes;
    ++stats_.trimmed;
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) audit_->on_trim(audit::info_of(pkt), removed);
#endif
    (void)removed;
    push_control(std::move(pkt));
  }

  // Admission into the control band (direct control packets and trimmed
  // headers) — the control-band admit hook fires here.
  void push_control(Packet&& pkt) {
#ifdef AMRT_AUDIT
    const std::uint32_t wire = pkt.wire_bytes;
#endif
    control_.push_back(std::move(pkt));
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) {
      audit_->on_queue_admit(audit_slot_, wire, total_pkts(), stats_.enqueued, stats_.dequeued,
                             stats_.dropped);
    }
#endif
  }

  RingDeque<Packet> control_;
  // Data band 0 lives inline and only the other bands keep a packet count, so
  // a single-band queue's enqueue/dequeue writes nothing a plain FIFO would not.
  RingDeque<Packet> top_band_;
  std::vector<RingDeque<Packet>> lower_bands_;  // bands 1..N-1 (strict priority)
  std::size_t lower_pkts_ = 0;                  // packets in lower_bands_
  std::size_t limit_pkts_;                      // shared by every data band
  Admission admission_;
  QueueStats stats_;
#ifdef AMRT_AUDIT
  audit::Auditor* audit_ = nullptr;
  std::uint32_t audit_slot_ = 0;
#endif
};

inline std::optional<Packet> EgressQueue::pop_data() {
  if (!top_band_.empty()) return top_band_.pop_front();
  for (auto& band : lower_bands_) {
    if (!band.empty()) {
      --lower_pkts_;
      return band.pop_front();
    }
  }
  return std::nullopt;
}

inline bool EgressQueue::admit_when_full(Packet&& pkt) {
  switch (admission_) {
    case Admission::kDropTail:
      return drop_data(std::move(pkt), audit::DropReason::kDataCapacity);
    case Admission::kTrim:
      trim_to_control(std::move(pkt));
      return false;  // not accepted into the data band (counted as trim, not drop)
    case Admission::kSelectiveDrop:
      return evict_unscheduled_for(std::move(pkt));
  }
  return false;
}

inline void EgressQueue::enqueue(Packet&& pkt) {
  ++stats_.enqueued;
  if (pkt.is_control()) {
    // Control packets are tiny and precious: strict priority, never dropped.
    push_control(std::move(pkt));
    return;
  }
  const auto bytes = pkt.wire_bytes;
  if (data_pkts() >= limit_pkts_) {
    if (!admit_when_full(std::move(pkt))) return;
  } else if (pkt.priority == 0 || lower_bands_.empty()) {
    top_band_.push_back(std::move(pkt));
  } else {
    // Priorities past the last band share it.
    lower_bands_[std::min<std::size_t>(pkt.priority, lower_bands_.size()) - 1].push_back(
        std::move(pkt));
    ++lower_pkts_;
  }
  stats_.data_bytes_in += bytes;
  const std::size_t depth = data_pkts();
  if (depth > stats_.max_data_pkts) stats_.max_data_pkts = depth;
#ifdef AMRT_AUDIT
  if (audit_ != nullptr) {
    audit_->on_queue_admit(audit_slot_, bytes, total_pkts(), stats_.enqueued, stats_.dequeued,
                           stats_.dropped);
  }
#endif
}

inline std::optional<Packet> EgressQueue::dequeue() {
  if (!control_.empty()) {
    ++stats_.dequeued;
    std::optional<Packet> pkt{control_.pop_front()};
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) {
      audit_->on_queue_dequeue(audit_slot_, pkt->wire_bytes, total_pkts(), stats_.enqueued,
                               stats_.dequeued, stats_.dropped);
    }
#endif
    return pkt;
  }
  auto pkt = pop_data();
  if (pkt) {
    ++stats_.dequeued;
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) {
      audit_->on_queue_dequeue(audit_slot_, pkt->wire_bytes, total_pkts(), stats_.enqueued,
                               stats_.dequeued, stats_.dropped);
    }
#endif
  }
  return pkt;
}

inline std::size_t EgressQueue::flush_faulted() {
  std::size_t flushed = 0;
  while (!control_.empty()) {
    drop_admitted(control_.pop_front(), audit::DropReason::kLinkDown);
    ++flushed;
  }
  while (auto pkt = pop_data()) {
    drop_admitted(std::move(*pkt), audit::DropReason::kLinkDown);
    ++flushed;
  }
  return flushed;
}

// Factory signature used by topology builders: experiments pick a queue shape
// per protocol. `host_nic` distinguishes end-host NICs (which need room for
// the unscheduled first-BDP burst) from switch fabric ports.
using QueueFactory = std::function<EgressQueue(bool host_nic)>;

}  // namespace amrt::net
