#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace greencc::net {

/// Packets in transit between two handlers — propagating on a wire after
/// serialization, or held back by a delay stage — each parked in a stable
/// slot until its delivery event fires.
///
/// The delivery event then captures only `{owner, slot}`, which fits
/// std::function's 16-byte inline storage; a closure holding the 272-byte
/// Packet itself would be heap-allocated per hop. Freed slots are reused
/// LIFO, so the pool grows to the peak number in transit and steady-state
/// traffic allocates nothing.
///
/// Slots rather than a FIFO: deliveries can complete out of order (a
/// propagation delay shortened mid-flight, per-packet jitter), and each
/// event must deliver its own packet.
class PacketSlots {
 public:
  /// Park a copy of `pkt`; returns the slot to pass to take().
  std::uint32_t put(const Packet& pkt) {
    if (free_.empty()) {
      slots_.push_back(pkt);
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = pkt;
    return slot;
  }

  /// Remove and return the packet in `slot`. The slot is free once this
  /// returns, so the result may be handed straight to a handler that parks
  /// packets here again.
  Packet take(std::uint32_t slot) {
    free_.push_back(slot);
    return slots_[slot];
  }

  /// Packets currently parked.
  std::size_t size() const { return slots_.size() - free_.size(); }

 private:
  std::vector<Packet> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace greencc::net
