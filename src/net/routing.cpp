#include "net/routing.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace amrt::net {

std::uint64_t ecmp_hash(FlowId flow) {
  // SplitMix64 finalizer: cheap and well distributed.
  std::uint64_t x = flow + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void RoutingTable::add_route(NodeId dst, int port) {
  added_.push_back(Route{dst.value, port});
  dirty_ = true;
}

// Folds the routes added since the last compaction into {offset,count}
// entries over one contiguous pool, in destination order (deterministic).
// A stable counting sort: each destination's compiled ports come first, then
// its new ones in the order they were added, so an ECMP set always lists its
// ports in insertion order however wiring and lookups interleave. Any cached
// ECMP picks refer to the old layout, so the route cache is flushed; spray
// cursors restart at the front of each (possibly re-shaped) port set.
void RoutingTable::compact() const {
  std::size_t n_dst = entries_.size();
  for (const Route& r : added_) n_dst = std::max<std::size_t>(n_dst, r.dst + std::size_t{1});
  std::vector<Entry> entries(n_dst);
  for (std::size_t dst = 0; dst < entries_.size(); ++dst) entries[dst].count = entries_[dst].count;
  for (const Route& r : added_) ++entries[r.dst].count;
  std::uint32_t offset = 0;
  for (Entry& e : entries) {
    e.offset = offset;
    offset += e.count;
  }
  // `spray` doubles as each destination's fill cursor and ends at zero.
  std::vector<int> pool(offset);
  for (std::size_t dst = 0; dst < entries_.size(); ++dst) {
    const Entry& old = entries_[dst];
    std::copy_n(pool_.begin() + old.offset, old.count, pool.begin() + entries[dst].offset);
    entries[dst].spray = old.count;
  }
  for (const Route& r : added_) {
    Entry& e = entries[r.dst];
    pool[e.offset + e.spray++] = r.port;
  }
  for (Entry& e : entries) e.spray = 0;
  entries_ = std::move(entries);
  pool_ = std::move(pool);
  added_ = std::vector<Route>{};  // release the build list's memory
  cache_.fill(CacheSlot{});
  view_entries_ = entries_.data();
  view_pool_ = pool_.data();
  view_size_ = entries_.size();
  // Any past link transition invalidates this full view; resetting the seen
  // epoch below the live one makes the next select() re-filter. Epoch 0
  // (no transition ever) keeps the full view with no refresh.
  seen_epoch_ = 0;
  dirty_ = false;
}

void RoutingTable::refresh_link_view() const {
  seen_epoch_ = link_state_->epoch.load(std::memory_order_relaxed);
  // Cached ECMP picks may point at ports that just died (or skip ports that
  // just revived): flush wholesale, repopulated per flow on the next packet.
  cache_.fill(CacheSlot{});
  bool any_down = false;
  for (const int p : pool_) {
    if (!link_state_->is_up(p)) {
      any_down = true;
      break;
    }
  }
  if (!any_down) {
    view_entries_ = entries_.data();
    view_pool_ = pool_.data();
    view_size_ = entries_.size();
    return;
  }
  alive_entries_.assign(entries_.size(), Entry{});
  alive_pool_.clear();
  alive_pool_.reserve(pool_.size());
  for (std::size_t dst = 0; dst < entries_.size(); ++dst) {
    const Entry& e = entries_[dst];
    const auto offset = static_cast<std::uint32_t>(alive_pool_.size());
    for (std::uint32_t i = 0; i < e.count; ++i) {
      const int p = pool_[e.offset + i];
      if (link_state_->is_up(p)) alive_pool_.push_back(p);
    }
    auto count = static_cast<std::uint32_t>(alive_pool_.size()) - offset;
    if (count == 0 && e.count != 0) {
      // Every path toward dst is dead. Keep the wired set: the dead egress
      // port eats the packets (charged as faulted), the flow heals when a
      // link returns, and a miswired fabric still dies via the count==0
      // check in select().
      for (std::uint32_t i = 0; i < e.count; ++i) alive_pool_.push_back(pool_[e.offset + i]);
      count = e.count;
    }
    alive_entries_[dst] = Entry{offset, count, 0};
  }
  view_entries_ = alive_entries_.data();
  view_pool_ = alive_pool_.data();
  view_size_ = alive_entries_.size();
}

std::span<const int> RoutingTable::ports_for(NodeId dst) const {
  if (dirty_) compact();
  if (dst.value >= entries_.size()) return {};
  const Entry& e = entries_[dst.value];
  return {pool_.data() + e.offset, e.count};
}

std::size_t RoutingTable::destinations() const {
  if (dirty_) compact();
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(), [](const Entry& e) { return e.count != 0; }));
}

void RoutingTable::require_route(NodeId dst) const {
  if (!knows(dst)) {
    throw std::logic_error("RoutingTable: no route to node " + std::to_string(dst.value) +
                           " after wiring");
  }
}

void RoutingTable::die_unknown_destination(NodeId dst) {
  // A packet addressed past the wired fabric is a topology bug, not a
  // runtime condition: fail loudly instead of dragging exception machinery
  // through the per-packet path.
  std::fprintf(stderr, "RoutingTable: unknown destination node %u — miswired topology\n",
               dst.value);
  std::abort();
}

}  // namespace amrt::net
