#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/packet_slots.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "trace/counters.h"
#include "trace/trace.h"

namespace greencc::net {

/// Configuration of a queued transmission port (NIC port or switch egress).
struct PortConfig {
  units::BitRate rate = units::BitRate::gbps(10);      ///< line rate
  sim::SimTime propagation = sim::SimTime::microseconds(5);
  units::Bytes queue_capacity_bytes{1 << 20};          ///< 1 MiB buffer
  units::Bytes ecn_threshold_bytes;                    ///< 0 = no marking
  /// Full AQM configuration; used when `aqm.mode != kNone`, otherwise the
  /// legacy ecn_threshold_bytes shorthand applies.
  AqmConfig aqm;
  /// Fixed per-packet service overhead on top of serialization. Models a
  /// packet-processing stage (e.g. the receiver's softirq path) rather than
  /// a wire, making the service rate MTU-dependent.
  double per_packet_ns = 0.0;
  /// Queue capacity in packets (0 = bytes cap only). The kernel's netdev
  /// backlog is packet-counted, which matters when sweeping the MTU.
  std::size_t queue_capacity_packets = 0;
  /// Service time consumed by a *dropped* packet (a backlog drop happens
  /// after DMA and first touch, so it still costs the processing stage).
  double drop_service_ns = 0.0;
};

inline AqmConfig step_ecn_config(units::Bytes threshold_bytes) {
  AqmConfig aqm;
  if (threshold_bytes > units::Bytes::zero()) {
    aqm.mode = AqmMode::kStepEcn;
    aqm.step_threshold_bytes = threshold_bytes;
  }
  return aqm;
}

/// A queue feeding a serializing transmitter over a propagation-delay link —
/// the standard queue+server model of one output port.
///
/// Packets arrive through `handle()`; when the transmitter is idle the head
/// packet serializes for size/rate seconds, then arrives at the downstream
/// handler after the propagation delay. Everything is event-driven; an idle
/// port costs no events.
class QueuedPort : public PacketHandler {
 public:
  QueuedPort(sim::Simulator& sim, std::string name, const PortConfig& config,
             PacketHandler* next)
      : sim_(sim),
        name_(std::move(name)),
        config_(config),
        queue_(config.queue_capacity_bytes,
               config.aqm.mode != AqmMode::kNone
                   ? config.aqm
                   : step_ecn_config(config.ecn_threshold_bytes),
               config.queue_capacity_packets),
        next_(next) {}

  void handle(Packet pkt) override;

  /// Downstream handler can be set after construction to break wiring cycles.
  void set_next(PacketHandler* next) { next_ = next; }

  /// Invoked with the wire size of every packet that starts transmission
  /// (used by the host energy meter to track the Gb/s term).
  void set_on_transmit(std::function<void(units::Bytes)> cb) {
    on_transmit_ = std::move(cb);
  }

  /// Subscribe to drops: `cb` is invoked with the wire size of every packet
  /// the queue rejects (the receiver's energy meter charges DMA+first-touch
  /// work for these; the fault layer and tests subscribe too). Subscribers
  /// run in registration order and cannot be removed — components register
  /// once at wiring time.
  void add_on_drop(std::function<void(units::Bytes)> cb) {
    on_drop_.push_back(std::move(cb));
  }

  /// Backwards-compatible alias for add_on_drop (historically the port held
  /// a single callback; it now appends).
  void set_on_drop(std::function<void(units::Bytes)> cb) {
    add_on_drop(std::move(cb));
  }

  /// Change the line rate mid-run (FaultSchedule's bandwidth events). The
  /// packet currently serializing finishes at the old rate; the next
  /// transmission picks up the new one. Must be > 0.
  void set_rate(units::BitRate rate) { config_.rate = rate; }

  /// Change the propagation delay mid-run. Packets already serialized keep
  /// the delay they departed with; the next one to finish serialization
  /// propagates at the new value.
  void set_propagation(sim::SimTime propagation) {
    config_.propagation = propagation;
  }

  /// Attach this run's event sink (nullptr = tracing off). When off, the
  /// packet path pays exactly one branch per event site. The port emits
  /// enqueue events; the queue emits drop and ECN-mark events under this
  /// port's name.
  void set_trace(trace::TraceSink* sink) {
    trace_ = sink;
    queue_.set_trace(sink, name_);
  }

  /// Register this port's queue and transmit counters under its name
  /// ("<name>.enqueued", "<name>.dropped", ...).
  void register_counters(trace::CounterRegistry& reg) const;

  /// Attach the run's drop ledger to this port's queue.
  void set_ledger(check::PacketLedger* ledger) { queue_.set_ledger(ledger); }

  /// Cross-check the transmit counters against the queue's dequeue books
  /// and verify the port is never idle with a backlog; see
  /// InvariantAuditor. Appends discrepancies to `problems`.
  void audit(std::vector<std::string>& problems) const;

  const QueueStats& queue_stats() const { return queue_.stats(); }
  units::Bytes queue_bytes() const { return queue_.bytes(); }
  std::size_t queue_packets() const { return queue_.packets(); }
  std::uint64_t packets_sent() const { return packets_sent_; }
  units::Bytes bytes_sent() const { return bytes_sent_; }
  bool transmitting() const { return transmitting_; }
  const std::string& name() const { return name_; }
  const PortConfig& config() const { return config_; }

 private:
  friend struct check::AuditCorruptor;  // tests corrupt private state

  void start_transmission();
  /// Serialization of `serializing_` finished: launch it down the wire and
  /// free the transmitter.
  void on_serialized();

  sim::Simulator& sim_;
  std::string name_;
  PortConfig config_;
  DropTailQueue queue_;
  PacketHandler* next_;
  trace::TraceSink* trace_ = nullptr;
  std::function<void(units::Bytes)> on_transmit_;
  std::vector<std::function<void(units::Bytes)>> on_drop_;
  bool transmitting_ = false;
  /// The packet on the transmitter (valid while transmitting_): the port
  /// serializes one at a time, so its event captures only `this`.
  Packet serializing_;
  PacketSlots propagating_;  ///< serialized, not yet delivered downstream
  double pending_drop_penalty_ns_ = 0.0;
  std::uint64_t packets_sent_ = 0;
  units::Bytes bytes_sent_;
};

}  // namespace greencc::net
