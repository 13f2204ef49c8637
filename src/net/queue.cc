#include "net/queue.h"

#include <algorithm>
#include <cmath>

#include "check/ledger.h"

namespace greencc::net {

DropTailQueue::DropTailQueue(units::Bytes capacity_bytes,
                             units::Bytes ecn_threshold_bytes,
                             std::size_t capacity_packets)
    : capacity_bytes_(capacity_bytes),
      capacity_packets_(capacity_packets),
      rng_(AqmConfig{}.red_seed) {
  if (ecn_threshold_bytes > units::Bytes::zero()) {
    aqm_.mode = AqmMode::kStepEcn;
    aqm_.step_threshold_bytes = ecn_threshold_bytes;
  }
}

DropTailQueue::DropTailQueue(units::Bytes capacity_bytes,
                             const AqmConfig& aqm,
                             std::size_t capacity_packets)
    : capacity_bytes_(capacity_bytes),
      capacity_packets_(capacity_packets),
      aqm_(aqm),
      rng_(aqm.red_seed) {}

void DropTailQueue::trace_event(trace::EventClass cls, const Packet& pkt,
                                sim::SimTime now) const {
  trace_->emit(
      {now, cls, pkt.flow, trace_src_, pkt.seq, static_cast<double>(bytes_.count())});
}

bool DropTailQueue::fits(const Packet& pkt) const {
  if (bytes_ + pkt.size_bytes > capacity_bytes_) return false;
  if (capacity_packets_ > 0 && entries_.size() >= capacity_packets_) {
    return false;
  }
  return true;
}

void DropTailQueue::push(Packet pkt, sim::SimTime now) {
  bytes_ += pkt.size_bytes;
  stats_.max_bytes_seen = std::max(stats_.max_bytes_seen, bytes_);
  ++stats_.enqueued;
  stats_.enqueued_bytes += pkt.size_bytes;
  entries_.push_back({pkt, now});
  stats_.max_packets_seen =
      std::max(stats_.max_packets_seen,
               static_cast<std::uint64_t>(entries_.size()));
}

Packet DropTailQueue::pop() {
  Packet pkt = entries_.front().pkt;
  entries_.pop_front();
  bytes_ -= pkt.size_bytes;
  return pkt;
}

bool DropTailQueue::red_admit(Packet& pkt, sim::SimTime now) {
  // Idle correction: an empty queue ages the average as if (idle / s)
  // minimum-size packets had passed (Floyd & Jacobson, section 3).
  if (red_was_empty_ && entries_.empty()) {
    const double idle_packets =
        (now - red_empty_since_).sec() / aqm_.red_idle_packet_time.sec();
    if (idle_packets > 0) {
      red_avg_ *= std::pow(1.0 - aqm_.red_weight, idle_packets);
    }
    // This arrival accounts the idle period whether or not RED then drops
    // the packet: restart the idle clock so a following arrival does not
    // decay the average for the same interval a second time. (Previously
    // only a successful enqueue cleared the idle state, so a RED drop left
    // it stale and the correction was re-applied.)
    red_empty_since_ = now;
  }
  red_avg_ = (1.0 - aqm_.red_weight) * red_avg_ +
             aqm_.red_weight * static_cast<double>(bytes_.count());
  if (red_avg_ < static_cast<double>(aqm_.red_min_bytes.count())) {
    red_count_ = -1;
    return true;
  }
  double p;
  if (red_avg_ >= static_cast<double>(aqm_.red_max_bytes.count())) {
    p = 1.0;
  } else {
    p = aqm_.red_max_probability *
        (red_avg_ - static_cast<double>(aqm_.red_min_bytes.count())) /
        static_cast<double>((aqm_.red_max_bytes - aqm_.red_min_bytes).count());
    // Uniformize inter-mark spacing (the count correction of the paper).
    ++red_count_;
    const double denom = 1.0 - static_cast<double>(red_count_) * p;
    if (denom > 0) p = std::min(1.0, p / denom);
  }
  if (rng_.next_double() < p) {
    red_count_ = 0;
    if (pkt.ecn_capable &&
        red_avg_ < static_cast<double>(aqm_.red_max_bytes.count())) {
      pkt.ce = true;
      ++stats_.ecn_marked;
      if (trace_) trace_event(trace::EventClass::kEcnMark, pkt, now);
      return true;  // marked, still enqueued
    }
    return false;  // dropped by RED
  }
  return true;
}

bool DropTailQueue::enqueue(Packet pkt, sim::SimTime now) {
  if (!fits(pkt)) {
    ++stats_.dropped;
    if (ledger_) ledger_->on_drop(pkt);
    if (trace_) trace_event(trace::EventClass::kDrop, pkt, now);
    return false;
  }
  switch (aqm_.mode) {
    case AqmMode::kNone:
    case AqmMode::kCodel:  // CoDel acts at dequeue time
      break;
    case AqmMode::kStepEcn:
      if (aqm_.step_threshold_bytes > units::Bytes::zero() && pkt.ecn_capable &&
          bytes_ >= aqm_.step_threshold_bytes) {
        pkt.ce = true;
        ++stats_.ecn_marked;
        if (trace_) trace_event(trace::EventClass::kEcnMark, pkt, now);
      }
      break;
    case AqmMode::kRed:
      if (!red_admit(pkt, now)) {
        ++stats_.dropped;
        if (ledger_) ledger_->on_drop(pkt);
        if (trace_) trace_event(trace::EventClass::kDrop, pkt, now);
        return false;
      }
      break;
  }
  push(pkt, now);
  red_was_empty_ = false;
  return true;
}

void DropTailQueue::codel_prune(sim::SimTime now) {
  // CoDel: while the head's sojourn time has exceeded `target` for at
  // least one `interval`, drop heads at a rate that grows with the square
  // root of the drop count.
  while (!entries_.empty()) {
    const sim::SimTime sojourn = now - entries_.front().enqueued_at;
    if (sojourn < aqm_.codel_target || bytes_ <= 2 * aqm_.mtu_bytes) {
      // Below target (or nearly empty): leave dropping state.
      codel_first_above_ = sim::SimTime::zero();
      codel_dropping_ = false;
      return;
    }
    if (!codel_dropping_) {
      if (codel_first_above_ == sim::SimTime::zero()) {
        codel_first_above_ = now + aqm_.codel_interval;
        return;  // give the queue one interval to drain on its own
      }
      if (now < codel_first_above_) return;
      // Entered the dropping state.
      codel_dropping_ = true;
      codel_drop_count_ = codel_drop_count_ > 2 ? codel_drop_count_ - 2 : 1;
      codel_next_drop_ = now;
    }
    if (now < codel_next_drop_) return;
    Packet dropped = pop();
    ++stats_.dropped;
    ++stats_.dropped_head;
    stats_.dropped_head_bytes += dropped.size_bytes;
    if (ledger_) ledger_->on_drop(dropped);
    if (trace_) trace_event(trace::EventClass::kDrop, dropped, now);
    ++codel_drop_count_;
    codel_next_drop_ =
        now + aqm_.codel_interval.scaled(
                  1.0 / std::sqrt(static_cast<double>(codel_drop_count_)));
  }
}

std::optional<Packet> DropTailQueue::dequeue(sim::SimTime now) {
  if (aqm_.mode == AqmMode::kCodel) codel_prune(now);
  if (entries_.empty()) return std::nullopt;
  Packet pkt = pop();
  ++stats_.dequeued;
  stats_.dequeued_bytes += pkt.size_bytes;
  if (entries_.empty()) {
    red_was_empty_ = true;
    red_empty_since_ = now;
  }
  return pkt;
}

void DropTailQueue::audit(std::vector<std::string>& problems) const {
  units::Bytes listed_bytes;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    listed_bytes += entries_[i].pkt.size_bytes;
  }
  if (listed_bytes != bytes_) {
    problems.push_back("cached bytes " + std::to_string(bytes_.count()) +
                       " != sum over entries " + std::to_string(listed_bytes.count()));
  }
  if (bytes_ < units::Bytes::zero()) {
    problems.push_back("byte occupancy negative: " + std::to_string(bytes_.count()));
  }
  const std::uint64_t accounted =
      stats_.dequeued + stats_.dropped_head +
      static_cast<std::uint64_t>(entries_.size());
  if (stats_.enqueued != accounted) {
    problems.push_back(
        "packet books do not balance: enqueued " +
        std::to_string(stats_.enqueued) + " != dequeued " +
        std::to_string(stats_.dequeued) + " + head-dropped " +
        std::to_string(stats_.dropped_head) + " + queued " +
        std::to_string(entries_.size()));
  }
  const units::Bytes accounted_bytes =
      stats_.dequeued_bytes + stats_.dropped_head_bytes + bytes_;
  if (stats_.enqueued_bytes != accounted_bytes) {
    problems.push_back(
        "byte books do not balance: enqueued " +
        std::to_string(stats_.enqueued_bytes.count()) + " != dequeued " +
        std::to_string(stats_.dequeued_bytes.count()) + " + head-dropped " +
        std::to_string(stats_.dropped_head_bytes.count()) + " + queued " +
        std::to_string(bytes_.count()));
  }
  if (stats_.dropped_head > stats_.dropped) {
    problems.push_back("head drops " + std::to_string(stats_.dropped_head) +
                       " exceed total drops " + std::to_string(stats_.dropped));
  }
  if (stats_.max_bytes_seen < bytes_) {
    problems.push_back("byte high-water " +
                       std::to_string(stats_.max_bytes_seen.count()) +
                       " below current occupancy " + std::to_string(bytes_.count()));
  }
  if (stats_.max_packets_seen < entries_.size()) {
    problems.push_back("packet high-water " +
                       std::to_string(stats_.max_packets_seen) +
                       " below current occupancy " +
                       std::to_string(entries_.size()));
  }
  if (capacity_bytes_ > units::Bytes::zero() && bytes_ > capacity_bytes_) {
    problems.push_back("occupancy " + std::to_string(bytes_.count()) +
                       " exceeds byte capacity " +
                       std::to_string(capacity_bytes_.count()));
  }
  if (capacity_packets_ > 0 && entries_.size() > capacity_packets_) {
    problems.push_back("occupancy " + std::to_string(entries_.size()) +
                       " exceeds packet capacity " +
                       std::to_string(capacity_packets_));
  }
}

}  // namespace greencc::net
