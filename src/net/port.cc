#include "net/port.h"

namespace greencc::net {

void QueuedPort::handle(Packet pkt) {
  // Tracing off: trace_ is nullptr and each site is one untaken branch —
  // the traced-off path must stay at current speed (guarded by
  // bench/ablation_trace_overhead). Drop and ECN-mark events are emitted
  // by the queue itself, which sees every AQM decision (CoDel drops at
  // dequeue time, where this port never handles the packet).
  if (!queue_.enqueue(pkt, sim_.now())) {  // tail drop or AQM
    pending_drop_penalty_ns_ += config_.drop_service_ns;
    for (const auto& cb : on_drop_) cb(pkt.size_bytes);
    return;
  }
  if (trace_) {
    trace_->emit({sim_.now(), trace::EventClass::kEnqueue, pkt.flow, name_,
                  pkt.seq, static_cast<double>(queue_.bytes().count())});
  }
  if (!transmitting_) start_transmission();
}

void QueuedPort::register_counters(trace::CounterRegistry& reg) const {
  const QueueStats* stats = &queue_.stats();
  reg.add(name_ + ".enqueued", &stats->enqueued);
  reg.add(name_ + ".dropped", &stats->dropped);
  reg.add(name_ + ".ecn_marked", &stats->ecn_marked);
  reg.add(name_ + ".peak_bytes", &stats->max_bytes_seen);
  reg.add(name_ + ".peak_packets", &stats->max_packets_seen);
  reg.add(name_ + ".packets_sent", &packets_sent_);
  reg.add(name_ + ".bytes_sent", &bytes_sent_);
}

void QueuedPort::audit(std::vector<std::string>& problems) const {
  const QueueStats& stats = queue_.stats();
  // Every transmitted packet was dequeued by this port, and CoDel head
  // drops are the only other way out of the queue.
  const std::uint64_t expected_sent = stats.dequeued;
  if (packets_sent_ != expected_sent) {
    problems.push_back("packets_sent " + std::to_string(packets_sent_) +
                       " != queue dequeued " + std::to_string(expected_sent));
  }
  if (bytes_sent_ != stats.dequeued_bytes) {
    problems.push_back("bytes_sent " + std::to_string(bytes_sent_.count()) +
                       " != queue dequeued_bytes " +
                       std::to_string(stats.dequeued_bytes.count()));
  }
  // Work-conserving transmitter: an idle port implies an empty queue (the
  // converse does not hold — the last packet may still be serializing).
  if (!transmitting_ && !queue_.empty()) {
    problems.push_back("idle transmitter with " +
                       std::to_string(queue_.packets()) +
                       " packet(s) backlogged");
  }
  queue_.audit(problems);
}

void QueuedPort::start_transmission() {
  auto pkt = queue_.dequeue(sim_.now());
  if (!pkt) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  serializing_ = *pkt;
  ++packets_sent_;
  bytes_sent_ += serializing_.size_bytes;
  if (on_transmit_) on_transmit_(serializing_.size_bytes);
  // Stamp in-band telemetry at departure (INT sink is the receiver).
  if (serializing_.int_enabled &&
      serializing_.int_count < serializing_.int_hops.size()) {
    auto& hop = serializing_.int_hops[serializing_.int_count++];
    hop.tx_bytes = bytes_sent_;
    hop.qlen_bytes = queue_.bytes();
    hop.ts = sim_.now();
    // Report the *effective* service rate for this packet size: a
    // processing stage with per-packet overhead drains slower than its
    // nominal bit rate, and that is the utilization INT readers must see.
    const double bits = static_cast<double>(serializing_.size_bytes.count()) *
                        units::kBitsPerByteF;
    hop.link_rate =
        config_.per_packet_ns > 0.0
            ? units::BitRate::bps(bits / (bits / config_.rate.bps() +
                                          config_.per_packet_ns * 1e-9))
            : config_.rate;
  }
  const sim::SimTime ser =
      serializing_.size_bytes / config_.rate +
      sim::SimTime::nanoseconds(static_cast<std::int64_t>(
          config_.per_packet_ns + pending_drop_penalty_ns_));
  pending_drop_penalty_ns_ = 0.0;
  sim_.schedule(ser, [this] { on_serialized(); });
}

void QueuedPort::on_serialized() {
  // Deliver after serialization + propagation; free the transmitter after
  // serialization only.
  const std::uint32_t slot = propagating_.put(serializing_);
  sim_.schedule(config_.propagation,
                [this, slot] { next_->handle(propagating_.take(slot)); });
  start_transmission();
}

}  // namespace greencc::net
