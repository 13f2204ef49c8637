#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cca/cca.h"
#include "energy/calibration.h"
#include "energy/cpu.h"
#include "net/packet.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "tcp/rtt.h"
#include "tcp/seq_bits.h"
#include "tcp/seq_window.h"
#include "tcp/tcp_config.h"
#include "trace/counters.h"
#include "trace/trace.h"

namespace greencc::check {
struct AuditCorruptor;
}  // namespace greencc::check

namespace greencc::tcp {

/// TCP bulk-data sender.
///
/// Implements the transport machinery the Linux stack provides to every CC
/// module: a SACK scoreboard, RFC 6675-style fast retransmit/recovery, RTO
/// with exponential backoff, delivery-rate sampling (for BBR), optional
/// pacing, and ECN negotiation. The congestion controller is a plug-in; the
/// sender consults `cwnd_segments()` / `pacing_rate()` after feeding it
/// the ACK/loss events.
///
/// Energy coupling: every transmitted segment, processed ACK, retransmission
/// and timeout charges the host CPU core (see WorkCalibration); the core in
/// turn gates packet release, so at small MTUs the CPU — not the NIC — is
/// the throughput bottleneck, exactly the effect §4.4 of the paper measures.
///
/// The connection starts established (no handshake): the paper's unit of
/// measurement is a multi-second bulk transfer where setup cost is noise.
class TcpSender : public net::PacketHandler {
 public:
  TcpSender(sim::Simulator& sim, net::FlowId flow, net::HostId src,
            net::HostId dst, const TcpConfig& config,
            std::unique_ptr<cca::CongestionControl> cc,
            energy::CpuCore* core, net::PacketHandler* nic,
            energy::WorkCalibration work = {});
  ~TcpSender();

  /// Queue `bytes` of application data (converted to whole segments).
  void add_app_data(units::Bytes bytes);

  /// Declare that no more application data is coming. Completion is only
  /// reported after this: a rate-limited app that has merely drained its
  /// token bucket has not finished its transfer.
  void mark_app_eof() { app_eof_ = true; }

  /// True once the app signalled EOF and everything queued has been
  /// cumulatively ACKed.
  bool complete() const {
    return app_eof_ && snd_una_ >= app_limit_segments_ &&
           app_limit_segments_ > 0;
  }

  /// Invoked once when `complete()` first becomes true.
  void set_on_complete(std::function<void()> cb) {
    on_complete_ = std::move(cb);
  }

  /// Kick the send loop (call after add_app_data / at flow start).
  void start() { maybe_send(); }

  /// ACKs from the network arrive here.
  void handle(net::Packet pkt) override;

  /// Attach this run's event sink (nullptr = tracing off). The sender
  /// emits retransmit, RTO, recovery enter/exit, cwnd-change and TLP
  /// events under src "tcp:sender".
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }

  /// Register this flow's transport counters ("<prefix>retransmissions",
  /// "<prefix>timeouts", ...) over the live TcpStats fields.
  void register_counters(trace::CounterRegistry& reg,
                         const std::string& prefix) const;

  const TcpStats& stats() const { return stats_; }
  const cca::CongestionControl& congestion_control() const { return *cc_; }
  std::int64_t inflight_segments() const;
  std::int64_t snd_una() const { return snd_una_; }
  std::int64_t snd_nxt() const { return snd_nxt_; }
  bool in_recovery() const { return in_recovery_; }
  const RttEstimator& rtt() const { return rtt_; }

  /// Re-derive the scoreboard's cached aggregates (pipe / sacked_out /
  /// lost_out) from the per-segment flags, cross-check the index bitmaps
  /// (unsacked, retransmission queue) against the scoreboard, and verify
  /// the sequence-space and in-flight bounds. Appends one line per
  /// discrepancy to `problems` (empty = healthy).
  void audit(std::vector<std::string>& problems) const;

 private:
  friend struct check::AuditCorruptor;  // tests corrupt private state

  struct SegState {
    sim::SimTime sent_time;
    std::int64_t delivered_at_send = 0;
    sim::SimTime delivered_time_at_send;
    bool app_limited = false;
    bool sacked = false;
    bool lost = false;
    bool in_pipe = false;  ///< currently counted in the pipe estimate
    int transmissions = 1;
  };

  void maybe_send();
  bool can_send() const;
  void send_segment(std::int64_t seq, bool is_retx);
  void process_ack(const net::Packet& ack);
  void enter_recovery(std::int64_t newly_lost);
  /// RACK-style loss detection (RFC 8985): a segment is lost once a segment
  /// transmitted sufficiently later has been delivered. Returns the number
  /// of segments newly marked lost.
  std::int64_t detect_losses_rack();
  void mark_lost(std::int64_t seq, SegState& seg);
  void on_rto();
  void on_tlp();
  /// Deliver every queued transmission whose release time has arrived.
  void on_tx_event();
  struct TxRecord;
  /// The wire packet for a transmission released now.
  net::Packet make_packet(const TxRecord& rec) const;
  void arm_rto();
  double pacing_interval_ns(units::Bytes wire_bytes) const;
  /// Emit a cwnd event if the controller's window moved since last emit.
  void trace_cwnd();

  sim::Simulator& sim_;
  net::FlowId flow_;
  net::HostId src_;
  net::HostId dst_;
  TcpConfig config_;
  std::unique_ptr<cca::CongestionControl> cc_;
  energy::CpuCore* core_;
  net::PacketHandler* nic_;
  energy::WorkCalibration work_;

  // --- sequence state (segment indices) ---
  std::int64_t snd_una_ = 0;   ///< lowest unacked segment
  std::int64_t snd_nxt_ = 0;   ///< next never-sent segment
  std::int64_t app_limit_segments_ = 0;  ///< data available from the app
  units::Bytes leftover_bytes_;          ///< sub-segment remainder

  // --- scoreboard ---
  /// Per-segment state over [snd_una, snd_nxt): the keys are dense (new
  /// sends append at snd_nxt, cumulative ACKs pop the front), so the
  /// scoreboard lives in a ring buffer instead of a node-per-segment map.
  SeqWindow<SegState> scoreboard_;
  /// Segments in the scoreboard that are not (yet) SACKed. SACK blocks can
  /// span thousands of already-delivered segments; scanning this bitmap a
  /// word at a time instead of the raw range keeps ACK processing
  /// O(block / 64 + newly sacked) — essential for the baseline's
  /// 10k-segment pinned window.
  SeqBits unsacked_;
  /// Exactly the segments flagged lost: mark_lost adds them, and a SACK, a
  /// cumulative ACK or the retransmission removes them. maybe_send re-sends
  /// the lowest first.
  SeqBits retx_queue_;
  /// Transmissions ordered by send time, for RACK: (xmit time, seq,
  /// transmission number). Entries are lazily discarded when stale. Send
  /// times are CPU release times, which never decrease (the core
  /// serializes send work), so every record appends at the back and the
  /// oldest is always the front.
  struct XmitRecord {
    sim::SimTime when;
    std::int64_t seq;
    int transmission;
  };
  sim::Ring<XmitRecord> xmit_order_;
  /// Send time of the most recently delivered (sacked/acked) transmission.
  sim::SimTime rack_xmit_time_ = sim::SimTime::zero();
  std::int64_t sacked_out_ = 0;
  std::int64_t lost_out_ = 0;
  std::int64_t pipe_ = 0;  ///< RFC 6675 pipe: segments believed in flight
  std::int64_t highest_sacked_ = -1;
  /// High-water mark of the controller's window, sampled at every send.
  /// pipe_ can exceed the *current* cwnd (the window shrinks on loss while
  /// flight is full) but never this mark + 1 (the +1 is the TLP probe).
  std::int64_t cwnd_hw_ = 0;

  // --- recovery state ---
  bool in_recovery_ = false;
  std::int64_t recovery_point_ = 0;

  // --- delivery accounting (rate samples) ---
  std::int64_t delivered_ = 0;
  sim::SimTime delivered_time_ = sim::SimTime::zero();

  // --- timers / pacing ---
  RttEstimator rtt_;
  sim::Timer rto_timer_;
  sim::Timer tlp_timer_;
  sim::Timer pace_timer_;  ///< single coalesced pacing wakeup
  bool tlp_allowed_ = true;  ///< one probe per stall episode
  int rto_backoff_ = 0;
  sim::SimTime next_pacing_time_ = sim::SimTime::zero();

  /// A transmission awaiting its CPU-gated release time: the fields of the
  /// packet that vary per segment. make_packet() fills in the rest (flow
  /// identity, wire size, the controller's ECN/INT requests) at release.
  struct TxRecord {
    sim::SimTime release;  ///< also the packet's sent_time
    std::int64_t seq;
    std::int64_t delivered_at_send;
    sim::SimTime delivered_time_at_send;
    bool app_limited;
    bool is_retx;
  };
  /// Transmissions awaiting release, in release order (core release times
  /// are monotone). Keeping them here instead of inside per-event closures
  /// keeps each release event down to a `this` capture — small enough for
  /// std::function's inline storage — and lets one event deliver every
  /// packet that shares its release instant. Records, not packets: a
  /// CPU-gated sender can back up thousands of segments, and a 40-byte
  /// record costs a seventh of the 272-byte Packet.
  sim::Ring<TxRecord> txq_;

  bool app_limited_now_ = false;
  bool cwnd_limited_now_ = false;  ///< last send attempt hit the window
  bool app_eof_ = false;
  trace::TraceSink* trace_ = nullptr;
  double last_traced_cwnd_ = -1.0;
  TcpStats stats_;
  std::function<void()> on_complete_;
  bool completed_ = false;
};

}  // namespace greencc::tcp
