// Shared cell pool for the packets travelling on a fabric's wires.
//
// A link is FIFO with a constant propagation delay, and a port's serializer
// only moves forward in time, so one port's deliveries leave in send order
// at strictly increasing times. A port therefore keeps the packets on its
// wire as an intrusive FIFO list of cells from this pool and schedules one
// event, for the list's head (see EgressPort::launch): the event set holds
// one entry per busy link, not one per packet in flight.
//
// One pool serves every port driven by one scheduler — the Network's for a
// serial run, one per shard for a sharded one — so a pool is only ever
// touched by one thread. A pool shared by all ports sizes to the fabric's
// in-flight peak; rings per port would each size to their own peak, and on
// a k=16 fat-tree those peaks add up to 3.4x the global one. Cells live in
// fixed slabs that never move and are recycled LIFO through a freelist, so
// the pool holds as many cells as were ever in flight at once, rounded up
// to a slab.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace amrt::net {

class WirePool {
 public:
  static constexpr std::uint32_t kNil = (std::uint32_t{1} << 24) - 1;

  struct Cell {
    std::int64_t deliver_ns = 0;  // arrival time at the peer
    // Event sequence number reserved at transmit time; EventQueue keeps
    // sequence numbers below 2^40.
    std::uint64_t seq : 40 = 0;
    std::uint64_t next : 24 = kNil;  // next cell on the same wire (or freelist)
    Packet pkt;
  };

  WirePool() = default;
  WirePool(const WirePool&) = delete;
  WirePool& operator=(const WirePool&) = delete;

  // Takes a cell for `pkt`, unlinked (next == kNil).
  [[nodiscard]] std::uint32_t alloc(std::int64_t deliver_ns, std::uint64_t seq, Packet&& pkt) {
    std::uint32_t c = free_head_;
    if (c != kNil) {
      free_head_ = static_cast<std::uint32_t>((*this)[c].next);
    } else {
      if (cells_ % kSlabCells == 0) slabs_.push_back(std::make_unique<Cell[]>(kSlabCells));
      assert(cells_ < kNil);
      c = cells_++;
    }
    Cell& cell = (*this)[c];
    cell.deliver_ns = deliver_ns;
    cell.seq = seq;
    cell.next = kNil;
    cell.pkt = std::move(pkt);
    ++in_use_;
    return c;
  }
  void release(std::uint32_t c) {
    (*this)[c].next = free_head_;
    free_head_ = c;
    --in_use_;
  }

  [[nodiscard]] Cell& operator[](std::uint32_t c) { return slabs_[c / kSlabCells][c % kSlabCells]; }

  // Cells on some wire now.
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  // Distinct cells ever handed out: the most that were on the wires at once,
  // since a new cell is cut only when the freelist is empty.
  [[nodiscard]] std::size_t cells() const { return cells_; }

 private:
  static constexpr std::uint32_t kSlabCells = 256;

  std::vector<std::unique_ptr<Cell[]>> slabs_;
  std::uint32_t cells_ = 0;
  std::uint32_t free_head_ = kNil;
  std::size_t in_use_ = 0;
};

}  // namespace amrt::net
