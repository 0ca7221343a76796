#include "net/queue.hpp"

namespace amrt::net {

// The eviction scan is the one queue operation that is O(depth); it only
// runs when the band is already full, so it stays out of the header.
bool EgressQueue::evict_unscheduled_for(Packet&& pkt) {
  if (pkt.unscheduled) {
    return drop_data(std::move(pkt), audit::DropReason::kUnscheduledSacrifice);
  }
  // Scheduled traffic evicts the youngest blind packet, if any.
  for (std::size_t i = top_band_.size(); i-- > 0;) {
    if (top_band_[i].unscheduled) {
      drop_admitted(std::move(top_band_[i]), audit::DropReason::kEvictedUnscheduled);
      top_band_.erase(i);
      top_band_.push_back(std::move(pkt));
      return true;
    }
  }
  // Queue full of scheduled packets: tail drop.
  return drop_data(std::move(pkt), audit::DropReason::kDataCapacity);
}

}  // namespace amrt::net
