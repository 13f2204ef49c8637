#pragma once

#include <array>
#include <cstdint>

#include "sim/time.h"
#include "units/units.h"

namespace greencc::net {

using FlowId = std::uint64_t;
using HostId = std::uint32_t;

/// One SACK block: segments in [start, end) have been received.
struct SackBlock {
  std::int64_t start = 0;
  std::int64_t end = 0;
  bool empty() const { return end <= start; }
};

/// One hop's in-band network telemetry record (INT), as a Tofino-class
/// programmable switch would stamp it: cumulative bytes transmitted by the
/// egress port, its queue depth, the local timestamp and the port speed.
/// HPCC computes per-link utilization from consecutive records.
struct IntRecord {
  units::Bytes tx_bytes;        ///< cumulative bytes sent by this port
  units::Bytes qlen_bytes;      ///< queue depth when this packet departed
  sim::SimTime ts;              ///< departure timestamp
  units::BitRate link_rate;     ///< effective port speed
};

/// A simulated packet. Sequence numbers index MSS-sized segments rather than
/// bytes — congestion control in the Linux kernel is likewise
/// packet-oriented — while `size_bytes` carries the wire size used for
/// serialization, queue occupancy and energy accounting.
///
/// Packets are value types with no payload, only metadata, but at ~270
/// bytes (SACK and INT arrays) they are not free to copy. Copy one between
/// handlers, never into event closures: a closure that large leaves
/// std::function's inline storage and heap-allocates. Components park
/// packets in owned storage instead (net::PacketSlots, queue rings, the
/// sender's release records), and their events capture `{this, slot}`.
struct Packet {
  FlowId flow = 0;
  HostId src = 0;
  HostId dst = 0;

  bool is_ack = false;
  std::int64_t seq = 0;        ///< data: segment index being carried
  std::int64_t ack_seq = 0;    ///< ack: next expected segment (cumulative)
  units::Bytes size_bytes;     ///< wire size incl. headers

  /// Up to 3 SACK blocks (the TCP option also fits at most 3-4).
  std::array<SackBlock, 3> sack{};

  // --- ECN (RFC 3168 / DCTCP) ---
  bool ecn_capable = false;  ///< ECT set by sender
  bool ce = false;           ///< congestion experienced, set by the switch
  bool ece = false;          ///< ack: echoes CE of the acked data
  std::int32_t ece_count = 0;  ///< ack: CE-marked segments since last ACK
                               ///< (DCTCP's accurate-ECN style feedback)

  // --- in-band network telemetry (HPCC) ---
  bool int_enabled = false;           ///< sender requests INT stamping
  std::uint8_t int_count = 0;         ///< hops recorded so far
  std::array<IntRecord, 4> int_hops{};

  // --- timestamps & delivery bookkeeping (RTT and BBR rate samples) ---
  sim::SimTime sent_time;              ///< when this packet left the sender
  std::int64_t delivered_at_send = 0;  ///< sender's delivered count at send
  sim::SimTime delivered_time_at_send; ///< time of that delivery count
  bool app_limited = false;            ///< sender was app-limited at send
  bool is_retx = false;                ///< retransmission of an earlier seq

  /// Payload damaged in flight (fault injection). The wire carries the
  /// packet normally — it costs bandwidth and receiver processing — but the
  /// receiving endpoint's checksum rejects it, so the transport never sees
  /// it. Set only by fault::ImpairedLink.
  bool corrupted = false;
};

/// Anything that can accept a packet (switch port, host stack, sink).
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void handle(Packet pkt) = 0;
};

}  // namespace greencc::net
