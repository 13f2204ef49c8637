#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/flow_map.h"
#include "net/packet.h"
#include "net/packet_slots.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace greencc::net {

/// Weighted fair egress port: per-flow queues served by Deficit Round Robin
/// (Shreedhar & Varghese 1996).
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

  DrrPort(sim::Simulator& sim, std::string name, const Config& config,
          PacketHandler* next)
      : sim_(sim), name_(std::move(name)), config_(config), next_(next) {}

  /// Set a flow's scheduling weight (default 1.0). Must be positive.
  void set_weight(FlowId flow, double weight);

  void handle(Packet pkt) override;

  void set_next(PacketHandler* next) { next_ = next; }

  /// Attach the run's drop ledger; propagated to every per-flow queue,
  /// including ones created lazily by later arrivals.
  void set_ledger(check::PacketLedger* ledger);

  /// Verify scheduler bookkeeping: active-list membership matches queue
  /// backlogs (every backlogged flow is in exactly one round slot, no flow
  /// appears twice), deficits are non-negative and only carried by active
  /// flows, and each per-flow queue's own books balance.
  void audit(std::vector<std::string>& problems) const;

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t dropped() const { return dropped_; }
  units::Bytes queued_bytes(FlowId flow) const;
  units::Bytes total_queued_bytes() const;
  std::int64_t total_queued_packets() const;

 private:
  friend struct check::AuditCorruptor;  // tests corrupt private state

  struct FlowState {
    std::unique_ptr<DropTailQueue> queue;
    double weight = 1.0;
    units::Bytes deficit;
    bool in_round = false;  ///< currently on the active list
  };

  FlowState& flow_state(FlowId flow);
  void start_transmission();
  /// Serialization of `serializing_` finished: launch it down the wire and
  /// pick the next packet.
  void on_serialized();

  sim::Simulator& sim_;
  std::string name_;
  Config config_;
  PacketHandler* next_;
  FlowMap<FlowState> flows_;  ///< slab-backed; flows are never removed
  check::PacketLedger* ledger_ = nullptr;
  std::vector<FlowId> active_;  ///< round-robin list of backlogged flows
  std::size_t round_index_ = 0;
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
