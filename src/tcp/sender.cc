#include "tcp/sender.h"

#include <algorithm>
#include <limits>

#include "check/check.h"

namespace greencc::tcp {

namespace {
constexpr std::string_view kTraceSrc = "tcp:sender";
}  // namespace

TcpSender::TcpSender(sim::Simulator& sim, net::FlowId flow, net::HostId src,
                     net::HostId dst, const TcpConfig& config,
                     std::unique_ptr<cca::CongestionControl> cc,
                     energy::CpuCore* core, net::PacketHandler* nic,
                     energy::WorkCalibration work)
    : sim_(sim),
      flow_(flow),
      src_(src),
      dst_(dst),
      config_(config),
      cc_(std::move(cc)),
      core_(core),
      nic_(nic),
      work_(work),
      rtt_(config.min_rto, config.max_rto),
      rto_timer_(sim, [this] { on_rto(); }),
      tlp_timer_(sim, [this] { on_tlp(); }),
      pace_timer_(sim, [this] { maybe_send(); }) {}

TcpSender::~TcpSender() = default;

void TcpSender::add_app_data(units::Bytes bytes) {
  leftover_bytes_ += bytes;
  const std::int64_t segments =
      leftover_bytes_.count() / config_.mss_bytes().count();
  app_limit_segments_ += segments;
  leftover_bytes_ -= segments * config_.mss_bytes();
  app_limited_now_ = false;
}

std::int64_t TcpSender::inflight_segments() const { return pipe_; }

bool TcpSender::can_send() const {
  const auto cwnd = static_cast<std::int64_t>(cc_->cwnd_segments());
  if (pipe_ >= cwnd) return false;
  return !retx_queue_.empty() || snd_nxt_ < app_limit_segments_;
}

double TcpSender::pacing_interval_ns(units::Bytes wire_bytes) const {
  const double rate = cc_->pacing_rate().bps();
  if (rate <= 0.0) return 0.0;
  return static_cast<double>(wire_bytes.count()) * units::kBitsPerByteF *
         units::kNanosPerSecond / rate;
}

void TcpSender::maybe_send() {
  while (can_send()) {
    if (cc_->pacing_rate().bps() > 0.0 && sim_.now() < next_pacing_time_) {
      // One coalesced wakeup; re-arming replaces any earlier deadline.
      pace_timer_.arm(next_pacing_time_ - sim_.now());
      return;
    }
    if (!retx_queue_.empty()) {
      const std::int64_t seq = retx_queue_.next(snd_una_, snd_nxt_);
      GREENCC_DCHECK(seq < snd_nxt_)
          << "flow " << flow_ << ": retransmission queue holds "
          << retx_queue_.size() << " segment(s) outside [snd_una " << snd_una_
          << ", snd_nxt " << snd_nxt_ << ")";
      retx_queue_.reset(seq);
      send_segment(seq, /*is_retx=*/true);
    } else {
      send_segment(snd_nxt_, /*is_retx=*/false);
      ++snd_nxt_;
    }
  }
  // Stopped with window open but no data: the flow is application-limited,
  // which taints subsequent delivery-rate samples (BBR must not mistake an
  // idle app for a slow network) and freezes loss-based window growth
  // (RFC 2861 congestion-window validation).
  cwnd_limited_now_ =
      pipe_ >= static_cast<std::int64_t>(cc_->cwnd_segments());
  if (retx_queue_.empty() && snd_nxt_ >= app_limit_segments_ &&
      !cwnd_limited_now_) {
    app_limited_now_ = true;
  }
}

void TcpSender::send_segment(std::int64_t seq, bool is_retx) {
  GREENCC_DCHECK(seq >= snd_una_)
      << "flow " << flow_ << ": transmitting segment " << seq
      << " already cumulatively acked (snd_una " << snd_una_ << ")";
  cwnd_hw_ = std::max(cwnd_hw_,
                      static_cast<std::int64_t>(cc_->cwnd_segments()));
  const units::Bytes wire_bytes = config_.mss_bytes() + config_.header_bytes;
  const auto cost = cc_->cost();
  double work_ns = work_.pkt_ns +
                   work_.byte_ns * static_cast<double>(wire_bytes.count()) +
                   cost.per_packet_ns;
  if (is_retx) work_ns += work_.retx_ns;
  const sim::SimTime release = core_->acquire(sim_.now(), work_ns);
  // The tx ring and RACK's transmit order are FIFOs only because the core
  // hands out release times that never run backwards.
  GREENCC_DCHECK(release >= sim_.now() &&
                 (txq_.empty() || txq_.back().release <= release) &&
                 (xmit_order_.empty() || xmit_order_.back().when <= release))
      << "flow " << flow_ << ": CPU release time " << release.ns()
      << " ns runs backwards (now " << sim_.now().ns() << " ns)";

  SegState& seg = is_retx ? scoreboard_.at(seq) : scoreboard_.append(seq);
  if (is_retx) {
    ++seg.transmissions;
    ++stats_.retransmissions;
    if (trace_) {
      trace_->emit({sim_.now(), trace::EventClass::kRetransmit, flow_,
                    kTraceSrc, seq, cc_->cwnd_segments()});
    }
    // The retransmitted copy is back in flight; it can be declared lost
    // again by RACK once something sent after it is delivered.
    if (seg.lost) {
      seg.lost = false;
      --lost_out_;
    }
    if (!seg.in_pipe) {
      seg.in_pipe = true;
      ++pipe_;
    }
  } else {
    seg.in_pipe = true;
    ++pipe_;
    unsacked_.set(seq);
  }
  GREENCC_DCHECK(pipe_ <= cwnd_hw_ + 1)
      << "flow " << flow_ << ": pipe " << pipe_
      << " exceeds the window high-water mark " << cwnd_hw_
      << " plus the TLP probe";
  xmit_order_.push_back({release, seq, seg.transmissions});
  seg.sent_time = release;
  seg.delivered_at_send = delivered_;
  seg.delivered_time_at_send = delivered_time_;
  seg.app_limited = app_limited_now_;
  ++stats_.segments_sent;

  // One event per packet keeps the (when, seq) schedule identical to the
  // direct form, but the packet rides in the tx ring: a release event that
  // finds earlier same-instant deliveries already done simply no-ops.
  txq_.push_back({release, seq, delivered_, delivered_time_, app_limited_now_,
                  is_retx});
  sim_.schedule_at(release, [this] { on_tx_event(); });

  if (cc_->pacing_rate().bps() > 0.0) {
    const double interval = pacing_interval_ns(wire_bytes);
    const sim::SimTime base = std::max(next_pacing_time_, sim_.now());
    next_pacing_time_ =
        base + sim::SimTime::nanoseconds(static_cast<std::int64_t>(interval));
  }
  arm_rto();
}

void TcpSender::on_tx_event() {
  // Release times are monotone (the CPU core serializes send work), so the
  // due packets are exactly the front run of the ring.
  const sim::SimTime now = sim_.now();
  while (!txq_.empty() && txq_.front().release <= now) {
    const TxRecord rec = txq_.front();
    txq_.pop_front();
    nic_->handle(make_packet(rec));
  }
}

net::Packet TcpSender::make_packet(const TxRecord& rec) const {
  net::Packet pkt;
  pkt.flow = flow_;
  pkt.src = src_;
  pkt.dst = dst_;
  pkt.seq = rec.seq;
  pkt.size_bytes = config_.mss_bytes() + config_.header_bytes;
  pkt.ecn_capable = cc_->wants_ecn();
  pkt.int_enabled = cc_->wants_int();
  pkt.sent_time = rec.release;
  pkt.delivered_at_send = rec.delivered_at_send;
  pkt.delivered_time_at_send = rec.delivered_time_at_send;
  pkt.app_limited = rec.app_limited;
  pkt.is_retx = rec.is_retx;
  return pkt;
}

void TcpSender::handle(net::Packet pkt) {
  if (!pkt.is_ack) return;  // data towards a sender endpoint: ignore
  if (pkt.corrupted) {
    // Checksum failure on the ACK path: the packet cost wire bandwidth but
    // carries no usable feedback. The injecting ImpairedLink already
    // reported the loss to the ledger.
    ++stats_.checksum_drops;
    return;
  }
  process_ack(pkt);
}

void TcpSender::process_ack(const net::Packet& ack) {
  const sim::SimTime now = sim_.now();
  ++stats_.acks_received;
  const auto cost = cc_->cost();
  core_->charge(now, work_.ack_ns + cost.per_ack_ns);

  std::int64_t newly_delivered = 0;
  sim::SimTime rtt_sample = sim::SimTime::zero();
  const std::int64_t prev_una = snd_una_;

  // --- cumulative advance ---
  if (ack.ack_seq > snd_una_) {
    while (!scoreboard_.empty() && scoreboard_.begin_seq() < ack.ack_seq) {
      SegState& seg = scoreboard_.front();
      if (!seg.sacked) {
        ++newly_delivered;
        if (seg.transmissions == 1) {
          rtt_sample = now - seg.sent_time;  // Karn: first transmissions only
        }
        rack_xmit_time_ = std::max(rack_xmit_time_, seg.sent_time);
      }
      if (seg.in_pipe) --pipe_;
      if (seg.sacked) --sacked_out_;
      if (seg.lost) --lost_out_;
      scoreboard_.pop_front();
    }
    retx_queue_.erase_below(ack.ack_seq);
    unsacked_.erase_below(ack.ack_seq);
    // Everything sent is acked, so every RACK record is stale: drop them
    // now rather than let an idle or finished flow keep the ring's storage.
    // RACK would skip them anyway, and the next record has a later send
    // time, so it stops at the same place.
    if (scoreboard_.empty()) xmit_order_.clear();
    snd_una_ = ack.ack_seq;
    GREENCC_DCHECK(pipe_ >= 0 && sacked_out_ >= 0 && lost_out_ >= 0)
        << "flow " << flow_ << ": aggregate went negative after cumulative "
        << "advance to " << snd_una_ << " (pipe " << pipe_ << ", sacked_out "
        << sacked_out_ << ", lost_out " << lost_out_ << ")";
  }

  // --- SACK blocks (via the unsacked index: O(block / 64 + newly sacked)) ---
  for (const auto& block : ack.sack) {
    if (block.empty()) continue;
    for (std::int64_t seq = unsacked_.next(block.start, block.end);
         seq < block.end; seq = unsacked_.next(seq + 1, block.end)) {
      unsacked_.reset(seq);
      SegState* seg_ptr = scoreboard_.find(seq);
      if (seg_ptr == nullptr) continue;  // stale (should not happen)
      SegState& seg = *seg_ptr;
      seg.sacked = true;
      ++sacked_out_;
      ++newly_delivered;
      if (seg.lost) {
        seg.lost = false;
        --lost_out_;
        retx_queue_.reset(seq);
      }
      if (seg.in_pipe) {
        seg.in_pipe = false;
        --pipe_;
      }
      if (seg.transmissions == 1) {
        rtt_sample = now - seg.sent_time;
      }
      rack_xmit_time_ = std::max(rack_xmit_time_, seg.sent_time);
      highest_sacked_ = std::max(highest_sacked_, seq);
    }
  }

  if (rtt_sample > sim::SimTime::zero()) rtt_.add_sample(rtt_sample, now);

  if (newly_delivered > 0) {
    delivered_ += newly_delivered;
    delivered_time_ = now;
    stats_.delivered_segments = delivered_;
  }
  if (ack.ece) stats_.ecn_echoes += ack.ece_count;

  // --- RACK loss detection ---
  const std::int64_t newly_lost = detect_losses_rack();
  if (newly_lost > 0 && !in_recovery_) enter_recovery(newly_lost);

  if (in_recovery_ && snd_una_ >= recovery_point_) {
    in_recovery_ = false;
    cc_->on_recovered(now);
    if (trace_) {
      trace_->emit({now, trace::EventClass::kRecoveryExit, flow_, kTraceSrc,
                    snd_una_, cc_->cwnd_segments()});
    }
  }
  if (snd_una_ > prev_una) {
    rto_backoff_ = 0;
    tlp_allowed_ = true;  // forward progress: a new probe may be sent later
  }

  // --- delivery-rate sample (tcp_rate_gen equivalent) ---
  units::BitRate delivery_rate = units::BitRate::zero();
  if (ack.delivered_time_at_send > sim::SimTime::zero() ||
      ack.delivered_at_send > 0) {
    const sim::SimTime interval = now - ack.delivered_time_at_send;
    const std::int64_t delta = delivered_ - ack.delivered_at_send;
    if (interval > sim::SimTime::zero() && delta > 0) {
      delivery_rate = units::BitRate::bps(
          static_cast<double>(delta) *
          static_cast<double>(config_.mss_bytes().count()) *
          units::kBitsPerByteF / interval.sec());
    }
  }

  // --- feed the congestion controller ---
  cca::AckEvent ev;
  ev.now = now;
  ev.acked_segments = newly_delivered;
  ev.ecn_echoed = ack.ece ? ack.ece_count : 0;
  ev.rtt = rtt_sample;
  ev.srtt = rtt_.srtt();
  ev.min_rtt = rtt_.min_rtt();
  ev.inflight = pipe_;
  ev.delivered = delivered_;
  ev.delivery_rate = delivery_rate;
  ev.app_limited = ack.app_limited;
  ev.in_recovery = in_recovery_;
  ev.cwnd_limited = cwnd_limited_now_;
  ev.int_count = ack.int_count;
  ev.int_hops = ack.int_hops;
  cc_->on_ack(ev);
  if (trace_) trace_cwnd();

  // --- RTO management & completion ---
  if (pipe_ > 0 || !retx_queue_.empty() ||
      snd_una_ < app_limit_segments_) {
    arm_rto();
  } else {
    rto_timer_.cancel();
    tlp_timer_.cancel();
  }

  if (!completed_ && complete()) {
    completed_ = true;
    rto_timer_.cancel();
    tlp_timer_.cancel();
    if (on_complete_) on_complete_();
    return;
  }

  maybe_send();
}

void TcpSender::mark_lost(std::int64_t seq, SegState& seg) {
  seg.lost = true;
  ++lost_out_;
  if (seg.in_pipe) {
    seg.in_pipe = false;
    --pipe_;
  }
  retx_queue_.set(seq);
}

std::int64_t TcpSender::detect_losses_rack() {
  if (rack_xmit_time_ == sim::SimTime::zero()) return 0;
  // Reordering window: a quarter of the min RTT (RFC 8985's default).
  const sim::SimTime reo_wnd =
      rtt_.min_rtt() > sim::SimTime::zero() ? rtt_.min_rtt() / 4
                                            : sim::SimTime::microseconds(10);
  std::int64_t newly_lost = 0;
  while (!xmit_order_.empty()) {
    const XmitRecord rec = xmit_order_.front();
    if (rec.when + reo_wnd >= rack_xmit_time_) break;
    xmit_order_.pop_front();
    SegState* seg_ptr = scoreboard_.find(rec.seq);
    if (seg_ptr == nullptr) continue;                  // already cum-acked
    SegState& seg = *seg_ptr;
    if (seg.sacked || seg.lost) continue;              // delivered or queued
    if (seg.transmissions != rec.transmission) continue;  // stale record
    mark_lost(rec.seq, seg);
    ++newly_lost;
  }
  return newly_lost;
}

void TcpSender::enter_recovery(std::int64_t newly_lost) {
  in_recovery_ = true;
  recovery_point_ = snd_nxt_;
  ++stats_.recoveries;
  cca::LossEvent ev;
  ev.now = sim_.now();
  ev.inflight = pipe_;
  ev.lost_segments = newly_lost;
  cc_->on_loss(ev);
  if (trace_) {
    trace_->emit({sim_.now(), trace::EventClass::kRecoveryEnter, flow_,
                  kTraceSrc, recovery_point_, cc_->cwnd_segments(),
                  static_cast<double>(newly_lost)});
    trace_cwnd();
  }
}

void TcpSender::on_rto() {
  if (completed_) return;
  ++stats_.timeouts;
  core_->charge(sim_.now(), work_.timeout_ns);
  cc_->on_rto(sim_.now());
  in_recovery_ = false;
  if (trace_) {
    trace_->emit({sim_.now(), trace::EventClass::kRto, flow_, kTraceSrc,
                  snd_una_, static_cast<double>(rto_backoff_)});
    trace_cwnd();
  }

  // Everything outstanding is presumed lost; retransmit in order.
  for (std::int64_t seq = unsacked_.next(snd_una_, snd_nxt_); seq < snd_nxt_;
       seq = unsacked_.next(seq + 1, snd_nxt_)) {
    SegState& seg = scoreboard_.at(seq);
    if (seg.lost) continue;
    mark_lost(seq, seg);
  }
  rto_backoff_ = std::min(rto_backoff_ + 1, 10);
  arm_rto();
  maybe_send();
}

void TcpSender::arm_rto() {
  sim::SimTime timeout = rtt_.rto();
  for (int i = 0; i < rto_backoff_; ++i) {
    timeout = std::min(timeout * 2, config_.max_rto);
  }
  rto_timer_.arm(timeout);
  // Tail-loss probe (RFC 8985): a quick retransmission of the newest
  // outstanding segment well before the RTO, so that a lost tail still
  // produces SACK feedback and fast recovery instead of a 200 ms stall.
  if (tlp_allowed_ && rtt_.srtt() > sim::SimTime::zero()) {
    const sim::SimTime pto =
        std::min(2 * rtt_.srtt() + sim::SimTime::milliseconds(1), timeout / 2);
    tlp_timer_.arm(pto);
  }
}

void TcpSender::on_tlp() {
  if (completed_ || !tlp_allowed_) return;
  // Probe with the highest unsacked in-flight segment, if any.
  for (std::int64_t seq = unsacked_.prev(snd_nxt_); seq >= 0;
       seq = unsacked_.prev(seq)) {
    const SegState* seg = scoreboard_.find(seq);
    if (seg == nullptr || seg->lost) continue;
    tlp_allowed_ = false;
    if (trace_) {
      trace_->emit({sim_.now(), trace::EventClass::kTlp, flow_, kTraceSrc,
                    seq, static_cast<double>(pipe_)});
    }
    send_segment(seq, /*is_retx=*/true);
    return;
  }
}

void TcpSender::trace_cwnd() {
  // Only called with trace_ set; emits one event per *change* so a stable
  // window costs nothing even while tracing.
  const double cwnd = cc_->cwnd_segments();
  if (cwnd == last_traced_cwnd_) return;
  last_traced_cwnd_ = cwnd;
  trace_->emit({sim_.now(), trace::EventClass::kCwnd, flow_, kTraceSrc,
                snd_una_, cwnd, rtt_.srtt().us()});
}

void TcpSender::audit(std::vector<std::string>& problems) const {
  auto tag = [this](const std::string& what) {
    return "flow " + std::to_string(flow_) + ": " + what;
  };

  if (snd_una_ < 0 || snd_una_ > snd_nxt_) {
    problems.push_back(tag("sequence space inverted: snd_una " +
                           std::to_string(snd_una_) + ", snd_nxt " +
                           std::to_string(snd_nxt_)));
  }
  if (snd_nxt_ > app_limit_segments_) {
    problems.push_back(tag("snd_nxt " + std::to_string(snd_nxt_) +
                           " beyond available app data " +
                           std::to_string(app_limit_segments_)));
  }

  // Re-derive the cached aggregates from the per-segment flags.
  std::int64_t sacked = 0, lost = 0, in_pipe = 0;
  if (!scoreboard_.empty() && (scoreboard_.begin_seq() < snd_una_ ||
                               scoreboard_.end_seq() > snd_nxt_)) {
    problems.push_back(tag(
        "scoreboard window [" + std::to_string(scoreboard_.begin_seq()) +
        ", " + std::to_string(scoreboard_.end_seq()) + ") outside [snd_una " +
        std::to_string(snd_una_) + ", snd_nxt " + std::to_string(snd_nxt_) +
        ")"));
  }
  for (std::int64_t seq = scoreboard_.begin_seq();
       seq < scoreboard_.end_seq(); ++seq) {
    const SegState& seg = scoreboard_.at(seq);
    if (seg.sacked) ++sacked;
    if (seg.lost) ++lost;
    if (seg.in_pipe) ++in_pipe;
    if (seg.sacked && seg.lost) {
      problems.push_back(tag("segment " + std::to_string(seq) +
                             " both sacked and lost"));
    }
    if (seg.sacked && seg.in_pipe) {
      problems.push_back(tag("segment " + std::to_string(seq) +
                             " sacked yet still counted in the pipe"));
    }
    if (seg.transmissions < 1) {
      problems.push_back(tag("segment " + std::to_string(seq) +
                             " on the scoreboard with " +
                             std::to_string(seg.transmissions) +
                             " transmissions"));
    }
    if (!seg.sacked && !unsacked_.test(seq)) {
      problems.push_back(tag("unsacked segment " + std::to_string(seq) +
                             " missing from the unsacked index"));
    }
    if (seg.lost && !retx_queue_.test(seq)) {
      problems.push_back(tag("lost segment " + std::to_string(seq) +
                             " missing from the retransmission queue"));
    }
  }
  if (sacked != sacked_out_) {
    problems.push_back(tag("sacked_out " + std::to_string(sacked_out_) +
                           " != " + std::to_string(sacked) +
                           " sacked flags on the scoreboard"));
  }
  if (lost != lost_out_) {
    problems.push_back(tag("lost_out " + std::to_string(lost_out_) + " != " +
                           std::to_string(lost) +
                           " lost flags on the scoreboard"));
  }
  if (in_pipe != pipe_) {
    problems.push_back(tag("pipe " + std::to_string(pipe_) + " != " +
                           std::to_string(in_pipe) +
                           " in_pipe flags on the scoreboard"));
  }

  // Index bitmaps point back into the scoreboard with the matching flags.
  constexpr std::int64_t kAll = std::numeric_limits<std::int64_t>::max();
  for (std::int64_t seq = unsacked_.next(0, kAll); seq < kAll;
       seq = unsacked_.next(seq + 1, kAll)) {
    const SegState* seg = scoreboard_.find(seq);
    if (seg == nullptr) {
      problems.push_back(tag("unsacked index holds " + std::to_string(seq) +
                             " which is not on the scoreboard"));
    } else if (seg->sacked) {
      problems.push_back(tag("unsacked index holds sacked segment " +
                             std::to_string(seq)));
    }
  }
  for (std::int64_t seq = retx_queue_.next(0, kAll); seq < kAll;
       seq = retx_queue_.next(seq + 1, kAll)) {
    const SegState* seg = scoreboard_.find(seq);
    if (seg == nullptr) {
      problems.push_back(tag("retransmission queue holds " +
                             std::to_string(seq) +
                             " which is not on the scoreboard"));
      continue;
    }
    if (!seg->lost || seg->sacked || seg->in_pipe) {
      problems.push_back(tag("retransmission queue holds segment " +
                             std::to_string(seq) +
                             " that is not (lost, un-sacked, out of pipe)"));
    }
  }

  if (highest_sacked_ >= snd_nxt_) {
    problems.push_back(tag("highest_sacked " +
                           std::to_string(highest_sacked_) +
                           " at or beyond snd_nxt " +
                           std::to_string(snd_nxt_)));
  }
  if (pipe_ > cwnd_hw_ + 1) {
    problems.push_back(tag("pipe " + std::to_string(pipe_) +
                           " exceeds the window high-water mark " +
                           std::to_string(cwnd_hw_) + " plus the TLP probe"));
  }
  if (stats_.retransmissions > stats_.segments_sent) {
    problems.push_back(tag("retransmissions " +
                           std::to_string(stats_.retransmissions) +
                           " exceed segments_sent " +
                           std::to_string(stats_.segments_sent)));
  }
  if (stats_.delivered_segments != delivered_) {
    problems.push_back(tag("stats.delivered_segments " +
                           std::to_string(stats_.delivered_segments) +
                           " != delivery accounting " +
                           std::to_string(delivered_)));
  }
  if (in_recovery_ && recovery_point_ > snd_nxt_) {
    problems.push_back(tag("recovery point " +
                           std::to_string(recovery_point_) +
                           " beyond snd_nxt " + std::to_string(snd_nxt_)));
  }
}

void TcpSender::register_counters(trace::CounterRegistry& reg,
                                  const std::string& prefix) const {
  reg.add(prefix + "segments_sent", &stats_.segments_sent);
  reg.add(prefix + "retransmissions", &stats_.retransmissions);
  reg.add(prefix + "timeouts", &stats_.timeouts);
  reg.add(prefix + "recoveries", &stats_.recoveries);
  reg.add(prefix + "delivered_segments", &stats_.delivered_segments);
  reg.add(prefix + "acks_received", &stats_.acks_received);
  reg.add(prefix + "ecn_echoes", &stats_.ecn_echoes);
  reg.add(prefix + "checksum_drops", &stats_.checksum_drops);
}

}  // namespace greencc::tcp
