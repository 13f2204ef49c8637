#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/flow_map.h"
#include "net/packet.h"
#include "net/packet_slots.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace greencc::check {
class PacketLedger;
struct AuditCorruptor;
}  // namespace greencc::check

namespace greencc::net {

/// Weighted fair egress port: per-flow tail-drop queues served by Deficit
/// Round Robin (Shreedhar & Varghese 1996).
///
/// The paper enforces Fig 1's bandwidth split at the application (iperf3
/// -b); a Tofino-class switch could instead enforce it in the network with
/// per-flow scheduling weights. This port provides that alternative: flows
/// with weight w_i receive w_i / sum(w) of the link while backlogged, and
/// unused capacity redistributes (the scheduler is work-conserving).
class DrrPort : public PacketHandler {
 public:
  struct Config {
    units::BitRate rate = units::BitRate::gbps(10);
    sim::SimTime propagation = sim::SimTime::microseconds(5);
    units::Bytes per_flow_queue_bytes{1 << 19};   ///< 512 KiB per flow
    units::Bytes base_quantum_bytes{9'018};       ///< ~1 max-size frame
  };

  /// Throws std::invalid_argument when base_quantum_bytes is below 1 byte.
  DrrPort(sim::Simulator& sim, std::string name, const Config& config,
          PacketHandler* next);

  /// Set a flow's scheduling weight (default 1.0). Its quantum, weight *
  /// base_quantum_bytes truncated to whole bytes, must be at least 1 byte
  /// (a zero quantum would never earn the flow a packet); otherwise throws
  /// std::invalid_argument.
  void set_weight(FlowId flow, double weight);

  void handle(Packet pkt) override;

  void set_next(PacketHandler* next) { next_ = next; }

  /// Attach the run's drop ledger: every tail drop is reported to it.
  void set_ledger(check::PacketLedger* ledger) { ledger_ = ledger; }

  /// Verify scheduler bookkeeping in time linear in flows + queued packets:
  /// the active ring is well linked and lists exactly the in_round flows,
  /// once each; every backlogged flow is scheduled; deficits are
  /// non-negative and only carried by active flows; each flow's cached
  /// bytes and packets match its packet list; and the pool's live nodes
  /// equal the total queued packets.
  void audit(std::vector<std::string>& problems) const;

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t dropped() const { return dropped_; }
  units::Bytes queued_bytes(FlowId flow) const;
  units::Bytes total_queued_bytes() const;
  std::int64_t total_queued_packets() const;

 private:
  friend struct check::AuditCorruptor;  // tests corrupt private state

  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  /// One flow's scheduler state, in a dense slot of `flows_` (flows are
  /// never removed). Its queued packets are a singly-linked list of pool
  /// nodes, and while backlogged it sits on the active ring.
  struct FlowState {
    FlowId flow = 0;
    units::Bytes quantum;  ///< weight * base quantum, >= 1 byte
    units::Bytes deficit;
    units::Bytes queued_bytes;
    std::uint32_t queued_packets = 0;
    std::uint32_t head = kNil;  ///< pool node of the oldest queued packet
    std::uint32_t tail = kNil;  ///< pool node of the newest queued packet
    std::uint32_t prev = kNil;  ///< active-ring neighbours (while in_round)
    std::uint32_t next = kNil;
    bool in_round = false;  ///< currently on the active ring
  };

  /// A queued packet. `next` links the owning flow's FIFO, or the free
  /// list once the node is released.
  struct Node {
    Packet pkt;
    std::uint32_t next = kNil;
  };

  /// The slot of `flow`, created (with the base quantum) on first use.
  std::uint32_t slot_of(FlowId flow);
  /// Append `slot` at the end of the round.
  void join_round(std::uint32_t slot);
  /// Take the current flow out of the round; the cursor moves to its
  /// successor, or past the end when it was the last flow.
  void leave_round();
  void start_transmission();
  /// Called when a whole lap of the round sent nothing (every deficit is
  /// short of its head packet): adds the quanta of the further laps that
  /// would send nothing either, so a quantum far below the packet size costs
  /// O(flows) per transmission instead of O(flows * packet / quantum).
  void skip_fruitless_laps();
  /// Serialization of `serializing_` finished: launch it down the wire and
  /// pick the next packet.
  void on_serialized();

  sim::Simulator& sim_;
  std::string name_;
  Config config_;
  PacketHandler* next_;
  FlowMap<std::uint32_t> slots_;  ///< FlowId -> index into flows_
  std::vector<FlowState> flows_;
  /// Port-wide packet pool: memory follows the port's backlog high-water
  /// mark, and a flow that drains and refills allocates nothing.
  std::vector<Node> pool_;
  std::uint32_t free_ = kNil;  ///< LIFO free list of pool nodes
  check::PacketLedger* ledger_ = nullptr;
  /// The round: a circular doubly-linked list of backlogged flow slots in
  /// arrival order. `head_` is its first flow; `current_` is the flow being
  /// served, or kNil when the cursor has run past the last flow. In that
  /// state a newly joining flow is served next, before the head — the
  /// order of the classic list-with-index formulation, which the outputs
  /// keep.
  std::uint32_t head_ = kNil;
  std::uint32_t current_ = kNil;
  bool topped_up_ = false;  ///< current flow already got this visit's quantum
  bool transmitting_ = false;
  /// The packet on the transmitter (valid while transmitting_); its
  /// serialization event captures only `this`.
  Packet serializing_;
  PacketSlots propagating_;  ///< serialized, not yet delivered downstream
  std::uint64_t packets_sent_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace greencc::net
