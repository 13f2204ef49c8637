#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "tcp/seq_range_set.h"
#include "tcp/tcp_config.h"
#include "trace/counters.h"
#include "trace/trace.h"

namespace greencc::tcp {

/// TCP receiver endpoint: reassembly, delayed ACKs, SACK generation and
/// DCTCP-style ECN echo.
///
/// ACK policy mirrors the kernel: every `delack_segments`-th in-order
/// segment is acknowledged immediately, out-of-order arrivals and CE-state
/// changes force an immediate (dup-)ACK with SACK blocks, and a short
/// delayed-ACK timer flushes anything left over so the sender never stalls
/// on the last odd segment.
class TcpReceiver : public net::PacketHandler {
 public:
  TcpReceiver(sim::Simulator& sim, net::FlowId flow, net::HostId self,
              const TcpConfig& config, net::PacketHandler* nic);

  /// Data segments from the network arrive here.
  void handle(net::Packet pkt) override;

  /// Attach this run's event sink (nullptr = tracing off). The receiver
  /// emits ack_sent events under src "tcp:receiver", completing the
  /// per-flow sender/receiver view of one time-ordered stream.
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }

  /// Register this flow's receive-side counters over the live fields.
  void register_counters(trace::CounterRegistry& reg,
                         const std::string& prefix) const;

  std::int64_t rcv_nxt() const { return rcv_nxt_; }
  std::int64_t segments_received() const { return segments_received_; }
  std::int64_t duplicate_segments() const { return duplicate_segments_; }
  std::int64_t acks_sent() const { return acks_sent_; }
  /// Segments discarded by the checksum (fault-injected corruption); they
  /// never count as received.
  std::int64_t checksum_drops() const { return checksum_drops_; }

  /// Verify reassembly-queue consistency at an event boundary: the
  /// out-of-order set is well-formed, sits strictly above rcv_nxt (anything
  /// at or below it was delivered and erased), recent-arrival hints refer
  /// to buffered or delivered data, and the delayed-ACK debt respects its
  /// threshold (a CE arrival or threshold hit forces an immediate ACK, so
  /// pending CE echoes never outlive the handler). Appends discrepancies
  /// to `problems`.
  void audit(std::vector<std::string>& problems) const;

 private:
  friend struct check::AuditCorruptor;  // tests corrupt private state

  /// The newest kCapacity values pushed, newest first, in inline storage.
  class RecentHints {
   public:
    static constexpr std::size_t kCapacity = 12;
    void push_front(std::int64_t seq) {
      head_ = (head_ + kCapacity - 1) % kCapacity;
      seqs_[head_] = seq;
      if (count_ < kCapacity) ++count_;
    }
    std::size_t size() const { return count_; }
    /// The i-th newest value; i < size().
    std::int64_t operator[](std::size_t i) const {
      return seqs_[(head_ + i) % kCapacity];
    }

   private:
    std::array<std::int64_t, kCapacity> seqs_{};
    std::size_t head_ = 0;  ///< slot of the newest value
    std::size_t count_ = 0;
  };

  void send_ack(const net::Packet& trigger);
  void on_delack_timeout();

  sim::Simulator& sim_;
  net::FlowId flow_;
  net::HostId self_;
  TcpConfig config_;
  net::PacketHandler* nic_;

  std::int64_t rcv_nxt_ = 0;
  SeqRangeSet out_of_order_;
  /// Recently arrived out-of-order sequence numbers, newest first: SACK
  /// blocks are generated from these, so the advertised blocks are the most
  /// recently changed ones (RFC 2018), not merely the lowest. With many
  /// holes this is what lets the sender eventually learn about everything
  /// that did arrive.
  RecentHints recent_ooo_;
  int unacked_segments_ = 0;
  std::int32_t pending_ce_ = 0;
  bool have_trigger_ = false;
  net::Packet last_trigger_;  ///< echo source for rate-sample fields
  sim::Timer delack_timer_;

  trace::TraceSink* trace_ = nullptr;
  std::int64_t segments_received_ = 0;
  std::int64_t duplicate_segments_ = 0;
  std::int64_t acks_sent_ = 0;
  std::int64_t checksum_drops_ = 0;
};

}  // namespace greencc::tcp
