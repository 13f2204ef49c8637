#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/ring.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace greencc::check {
class PacketLedger;
struct AuditCorruptor;
}  // namespace greencc::check

namespace greencc::net {

/// Statistics kept by every queue; benches and tests read these.
///
/// The counters are double-entry books for the audit layer: packets that
/// were admitted (`enqueued`) either left through the front (`dequeued`),
/// were head-dropped by CoDel (`dropped_head`) or are still queued, and
/// the same holds for the byte-unit columns. `dropped` counts every drop —
/// tail, RED and CoDel head — so `dropped >= dropped_head` always;
/// tail/RED-dropped packets were never admitted and appear in no other
/// column.
struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t dropped_head = 0;  ///< CoDel head drops (subset of dropped)
  std::uint64_t ecn_marked = 0;
  units::Bytes enqueued_bytes;
  units::Bytes dequeued_bytes;
  units::Bytes dropped_head_bytes;
  /// Peak occupancy over the queue's lifetime, in both units. Queue-sizing
  /// claims (how much buffer a CCA actually needs) read these directly
  /// instead of requiring a trace run; the packet peak is what matters for
  /// packet-counted buffers like the receiver backlog.
  units::Bytes max_bytes_seen;
  std::uint64_t max_packets_seen = 0;
};

/// Queue management discipline applied on top of the tail-drop FIFO.
enum class AqmMode {
  kNone,     ///< pure tail drop
  kStepEcn,  ///< DCTCP-style step marking at a fixed threshold
  kRed,      ///< Random Early Detection (Floyd & Jacobson 1993): EWMA queue
             ///< average, probabilistic mark (ECT) or drop between thresholds
  kCodel,    ///< CoDel (Nichols & Jacobson 2012): sojourn-time-driven head
             ///< dropping with the sqrt control law
};

/// AQM parameters. Defaults are scaled for the 10 Gb/s / tens-of-us RTT
/// datacenter regime of the paper's testbed rather than the WAN values of
/// the original papers.
struct AqmConfig {
  AqmMode mode = AqmMode::kNone;

  // kStepEcn
  units::Bytes step_threshold_bytes;

  // kRed
  units::Bytes red_min_bytes{60'000};
  units::Bytes red_max_bytes{180'000};
  double red_max_probability = 0.1;
  double red_weight = 0.002;  ///< EWMA weight per arrival
  /// Typical packet transmission time, used to age the average across idle
  /// periods (the original paper's m = idle/s correction) — without it a
  /// drained queue keeps its stale high average and RED death-spirals
  /// low-BDP flows.
  sim::SimTime red_idle_packet_time = sim::SimTime::nanoseconds(1'200);
  std::uint64_t red_seed = 99;

  // kCodel
  sim::SimTime codel_target = sim::SimTime::microseconds(50);
  sim::SimTime codel_interval = sim::SimTime::milliseconds(1);

  /// Wire MTU of the traffic traversing this queue. CoDel leaves its
  /// dropping state once fewer than two MTUs' worth of bytes remain — the
  /// "nearly empty" guard of Nichols & Jacobson 2012. Scenario propagates
  /// the experiment's configured MTU here; a previous revision hardcoded
  /// the 9018-byte jumbo frame, which silently disabled CoDel entirely for
  /// 1500-byte-MTU experiments (the queue never drained below ~18 KB of
  /// small frames while standing).
  units::Bytes mtu_bytes{1'500};
};

/// Tail-drop FIFO with optional AQM, modelling one output queue.
///
/// Capacity is bytes and/or packets. Enqueue/dequeue take the current time
/// to drive RED's average and CoDel's sojourn logic; kNone/kStepEcn users
/// may pass the default zero.
class DropTailQueue {
 public:
  DropTailQueue(units::Bytes capacity_bytes,
                units::Bytes ecn_threshold_bytes = units::Bytes::zero(),
                std::size_t capacity_packets = 0);

  DropTailQueue(units::Bytes capacity_bytes, const AqmConfig& aqm,
                std::size_t capacity_packets = 0);

  /// Returns false (and counts a drop) if the packet did not fit or the
  /// AQM chose to drop it.
  bool enqueue(Packet pkt, sim::SimTime now = sim::SimTime::zero());

  /// Pop the head (CoDel may drop heads first), or nullopt when empty.
  std::optional<Packet> dequeue(sim::SimTime now = sim::SimTime::zero());

  /// The head packet without removing it, or nullptr when empty.
  const Packet* peek() const {
    return entries_.empty() ? nullptr : &entries_.front().pkt;
  }

  /// Attach this run's event sink (nullptr = off). The queue emits drop
  /// and ECN-mark events labelled `src` (its owning port's name); every
  /// drop site reports, including CoDel's dequeue-time head drops that the
  /// owning port never sees.
  void set_trace(trace::TraceSink* sink, std::string src) {
    trace_ = sink;
    trace_src_ = std::move(src);
  }

  /// Attach the run's drop ledger (nullptr = off). Every drop site reports
  /// the dropped packet so the auditor's per-flow conservation equation
  /// balances; see check::PacketLedger.
  void set_ledger(check::PacketLedger* ledger) { ledger_ = ledger; }

  /// Re-derive this queue's books from first principles and append a
  /// description of every discrepancy to `problems` (empty = healthy):
  /// cached byte/packet occupancy must match the entry list, and the
  /// enqueue/dequeue/head-drop counters must conserve in both units.
  void audit(std::vector<std::string>& problems) const;

  bool empty() const { return entries_.empty(); }
  units::Bytes bytes() const { return bytes_; }
  std::size_t packets() const { return entries_.size(); }
  units::Bytes capacity_bytes() const { return capacity_bytes_; }
  const QueueStats& stats() const { return stats_; }
  double red_average_bytes() const { return red_avg_; }

 private:
  friend struct check::AuditCorruptor;  // tests corrupt private state

  struct Entry {
    Packet pkt;
    sim::SimTime enqueued_at;
  };

  bool fits(const Packet& pkt) const;
  void push(Packet pkt, sim::SimTime now);
  Packet pop();
  bool red_admit(Packet& pkt, sim::SimTime now);
  void codel_prune(sim::SimTime now);
  void trace_event(trace::EventClass cls, const Packet& pkt,
                   sim::SimTime now) const;

  units::Bytes capacity_bytes_;
  std::size_t capacity_packets_;  ///< 0 = unlimited (bytes cap only)
  AqmConfig aqm_;
  sim::Rng rng_;
  units::Bytes bytes_;
  sim::Ring<Entry> entries_;
  QueueStats stats_;
  trace::TraceSink* trace_ = nullptr;
  std::string trace_src_;
  check::PacketLedger* ledger_ = nullptr;

  // RED state.
  double red_avg_ = 0.0;
  int red_count_ = -1;  ///< packets since last mark/drop
  sim::SimTime red_empty_since_ = sim::SimTime::zero();
  bool red_was_empty_ = true;

  // CoDel state.
  bool codel_dropping_ = false;
  sim::SimTime codel_first_above_ = sim::SimTime::zero();
  sim::SimTime codel_next_drop_ = sim::SimTime::zero();
  int codel_drop_count_ = 0;
};

}  // namespace greencc::net
