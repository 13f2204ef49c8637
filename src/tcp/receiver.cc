#include "tcp/receiver.h"

#include <algorithm>

namespace greencc::tcp {

TcpReceiver::TcpReceiver(sim::Simulator& sim, net::FlowId flow,
                         net::HostId self, const TcpConfig& config,
                         net::PacketHandler* nic)
    : sim_(sim),
      flow_(flow),
      self_(self),
      config_(config),
      nic_(nic),
      delack_timer_(sim, [this] { on_delack_timeout(); }) {}

void TcpReceiver::handle(net::Packet pkt) {
  if (pkt.is_ack || pkt.flow != flow_) return;
  if (pkt.corrupted) {
    // Checksum failure: the segment consumed wire bandwidth and receive
    // processing but never reaches the transport — no reassembly, no ACK.
    // The injecting ImpairedLink already reported the loss to the ledger.
    ++checksum_drops_;
    return;
  }
  ++segments_received_;
  if (pkt.ce) ++pending_ce_;

  bool out_of_order = false;
  if (pkt.seq == rcv_nxt_) {
    // In-order: advance across any previously buffered range.
    ++rcv_nxt_;
    rcv_nxt_ = out_of_order_.contiguous_end(rcv_nxt_);
    out_of_order_.erase_below(rcv_nxt_);
  } else if (pkt.seq > rcv_nxt_) {
    out_of_order_.insert(pkt.seq, pkt.seq + 1);
    recent_ooo_.push_front(pkt.seq);
    out_of_order = true;
  } else {
    // Below rcv_nxt: spurious retransmission; ACK immediately so the
    // sender's scoreboard converges.
    ++duplicate_segments_;
    out_of_order = true;
  }

  last_trigger_ = pkt;
  have_trigger_ = true;
  ++unacked_segments_;

  if (out_of_order || unacked_segments_ >= config_.delack_segments ||
      pkt.ce) {
    send_ack(pkt);
  } else {
    delack_timer_.arm(config_.delack_timeout);
  }
}

void TcpReceiver::send_ack(const net::Packet& trigger) {
  net::Packet ack;
  ack.flow = flow_;
  ack.src = self_;
  ack.dst = trigger.src;
  ack.is_ack = true;
  ack.ack_seq = rcv_nxt_;
  ack.size_bytes = config_.ack_bytes;

  // RFC 2018: first block describes the range containing the most recent
  // arrival, followed by the next most recently changed ranges.
  std::size_t filled = 0;
  auto add_block = [&](std::int64_t seq) {
    if (filled >= ack.sack.size() || seq < rcv_nxt_) return;
    if (!out_of_order_.contains(seq)) return;
    const auto range = out_of_order_.range_containing(seq);
    for (std::size_t i = 0; i < filled; ++i) {
      if (ack.sack[i].start == std::max(range.start, rcv_nxt_)) return;
    }
    ack.sack[filled++] = {std::max(range.start, rcv_nxt_), range.end};
  };
  if (!trigger.is_ack && trigger.seq >= rcv_nxt_) add_block(trigger.seq);
  for (std::size_t i = 0; i < recent_ooo_.size(); ++i) {
    add_block(recent_ooo_[i]);
  }
  // Pad with the lowest ranges if slots remain (helps the sender fill the
  // oldest holes' context).
  if (filled < ack.sack.size()) {
    const auto blocks =
        out_of_order_.blocks_above(rcv_nxt_, ack.sack.size());
    for (const auto& b : blocks) {
      if (filled >= ack.sack.size()) break;
      bool dup = false;
      for (std::size_t i = 0; i < filled; ++i) {
        if (ack.sack[i].start == b.start) dup = true;
      }
      if (!dup) ack.sack[filled++] = {b.start, b.end};
    }
  }

  ack.ece = pending_ce_ > 0;
  ack.ece_count = pending_ce_;
  pending_ce_ = 0;

  // Echo the trigger's rate-sample bookkeeping back to the sender.
  ack.sent_time = trigger.sent_time;
  ack.delivered_at_send = trigger.delivered_at_send;
  ack.delivered_time_at_send = trigger.delivered_time_at_send;
  ack.app_limited = trigger.app_limited;
  // INT sink: reflect the telemetry stack (HPCC's ACK path).
  ack.int_count = trigger.int_count;
  ack.int_hops = trigger.int_hops;

  unacked_segments_ = 0;
  delack_timer_.cancel();
  ++acks_sent_;
  if (trace_) {
    trace_->emit({sim_.now(), trace::EventClass::kAckSent, flow_,
                  "tcp:receiver", rcv_nxt_,
                  static_cast<double>(ack.ece_count)});
  }
  nic_->handle(ack);
}

void TcpReceiver::register_counters(trace::CounterRegistry& reg,
                                    const std::string& prefix) const {
  reg.add(prefix + "segments_received", &segments_received_);
  reg.add(prefix + "duplicate_segments", &duplicate_segments_);
  reg.add(prefix + "acks_sent", &acks_sent_);
  reg.add(prefix + "checksum_drops", &checksum_drops_);
}

void TcpReceiver::on_delack_timeout() {
  if (unacked_segments_ > 0 && have_trigger_) {
    send_ack(last_trigger_);
  }
}

void TcpReceiver::audit(std::vector<std::string>& problems) const {
  std::string why;
  if (!out_of_order_.well_formed(&why)) {
    problems.push_back("reassembly queue malformed: " + why);
  }
  // Everything at or below rcv_nxt was delivered and erased; a range
  // starting exactly at rcv_nxt would have advanced the cumulative ACK.
  if (!out_of_order_.empty() && out_of_order_.front().start <= rcv_nxt_) {
    problems.push_back("reassembly queue holds [" +
                       std::to_string(out_of_order_.front().start) + ", " +
                       std::to_string(out_of_order_.front().end) +
                       ") at or below rcv_nxt " + std::to_string(rcv_nxt_));
  }
  // SACK hints must refer to data the receiver actually has: still
  // buffered, or already delivered past the cumulative ACK.
  for (std::size_t i = 0; i < recent_ooo_.size(); ++i) {
    const std::int64_t seq = recent_ooo_[i];
    if (seq >= rcv_nxt_ && !out_of_order_.contains(seq)) {
      problems.push_back("recent out-of-order hint " + std::to_string(seq) +
                         " neither delivered nor buffered");
    }
  }
  // A delayed-ACK debt at the threshold (or any pending CE echo) forces an
  // immediate ACK inside the handler, so neither survives to an event
  // boundary.
  if (unacked_segments_ < 0 || unacked_segments_ >= config_.delack_segments) {
    problems.push_back("delayed-ACK debt " +
                       std::to_string(unacked_segments_) +
                       " outside [0, " +
                       std::to_string(config_.delack_segments) + ")");
  }
  if (pending_ce_ != 0) {
    problems.push_back(std::to_string(pending_ce_) +
                       " CE mark(s) pending outside the receive handler");
  }
  if (rcv_nxt_ < 0 || segments_received_ < 0 || acks_sent_ < 0) {
    problems.push_back("negative counter: rcv_nxt " +
                       std::to_string(rcv_nxt_) + ", segments_received " +
                       std::to_string(segments_received_) + ", acks_sent " +
                       std::to_string(acks_sent_));
  }
}

}  // namespace greencc::tcp
