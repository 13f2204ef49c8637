#include "fault/impairment.h"

#include <utility>

namespace greencc::fault {

namespace {
constexpr std::string_view kIid = "iid";
constexpr std::string_view kBurst = "burst";
constexpr std::string_view kDown = "link-down";
}  // namespace

void ImpairedLink::handle(net::Packet pkt) {
  ++stats_.arrived;

  if (down_) {
    ++stats_.down_drops;
    drop(pkt, trace::EventClass::kFaultLoss, kDown);
    return;
  }

  // Stage order is part of the determinism contract: loss, burst, corrupt,
  // duplicate, reorder, jitter. Each stage consults only its own RNG stream,
  // and only when enabled, so a disabled stage leaves every other stream's
  // draw sequence untouched.
  if (config_.loss_rate > 0.0 && loss_rng_.bernoulli(config_.loss_rate)) {
    ++stats_.loss_drops;
    drop(pkt, trace::EventClass::kFaultLoss, kIid);
    return;
  }

  if (config_.ge_p_bad > 0.0) {
    // Advance the Gilbert–Elliott chain once per packet, then apply the
    // state's loss probability. Two draws per packet (transition + loss)
    // keeps the draw count state-independent, so the stream stays aligned
    // regardless of the path taken.
    const double transition = ge_rng_.next_double();
    const double loss = ge_rng_.next_double();
    if (ge_bad_) {
      if (transition < config_.ge_p_good) ge_bad_ = false;
    } else {
      if (transition < config_.ge_p_bad) ge_bad_ = true;
    }
    if (ge_bad_ && loss < config_.ge_loss_bad) {
      ++stats_.burst_drops;
      drop(pkt, trace::EventClass::kFaultLoss, kBurst);
      return;
    }
  }

  if (config_.corrupt_rate > 0.0 && !pkt.corrupted &&
      corrupt_rng_.bernoulli(config_.corrupt_rate)) {
    // The packet keeps moving — it costs wire bandwidth and receiver
    // processing — but the endpoint checksum will reject it, so account the
    // loss now, where the flow is known and the decision is made. The
    // endpoint discard itself is deterministic.
    pkt.corrupted = true;
    ++stats_.corrupted;
    if (ledger_ != nullptr) ledger_->on_fault_drop(pkt);
    if (trace_ != nullptr) {
      trace_->emit({sim_.now(), trace::EventClass::kFaultCorrupt, pkt.flow,
                    name_, pkt.seq});
    }
  }

  if (config_.duplicate_rate > 0.0 &&
      duplicate_rng_.bernoulli(config_.duplicate_rate)) {
    // The copy is fabricated: credit it to the ledger's injected column so
    // receiver arrivals stay balanced against sender transmissions.
    ++stats_.duplicated;
    if (ledger_ != nullptr) {
      ledger_->on_fault_inject(pkt);
      // A copy of an already-corrupted packet dies at the receiver checksum
      // like the original; book its loss now (same rule as the corrupt
      // stage: account at decision time, the discard is deterministic).
      if (pkt.corrupted) ledger_->on_fault_drop(pkt);
    }
    if (trace_ != nullptr) {
      trace_->emit({sim_.now(), trace::EventClass::kFaultDuplicate, pkt.flow,
                    name_, pkt.seq, 1.0});
    }
    forward(pkt, sim::SimTime::zero());
  }

  if (config_.reorder_rate > 0.0 &&
      reorder_rng_.bernoulli(config_.reorder_rate)) {
    ++stats_.reordered;
    if (trace_ != nullptr) {
      trace_->emit({sim_.now(), trace::EventClass::kFaultReorder, pkt.flow,
                    name_, pkt.seq, config_.reorder_delay.us()});
    }
    forward(std::move(pkt), config_.reorder_delay);
    return;
  }

  if (config_.jitter_max > sim::SimTime::zero()) {
    ++stats_.jittered;
    const auto jitter = sim::SimTime::nanoseconds(
        static_cast<std::int64_t>(jitter_rng_.next_below(
            static_cast<std::uint64_t>(config_.jitter_max.ns()))));
    forward(std::move(pkt), jitter);
    return;
  }

  forward(std::move(pkt), sim::SimTime::zero());
}

void ImpairedLink::forward(net::Packet pkt, sim::SimTime extra_delay) {
  if (extra_delay == sim::SimTime::zero()) {
    // Synchronous pass-through: no event is scheduled, so an all-zero
    // impairment stage preserves the unimpaired event ordering exactly.
    ++stats_.forwarded;
    next_->handle(pkt);
    return;
  }
  const std::uint32_t slot = held_.put(pkt);
  sim_.schedule(extra_delay, [this, slot] {
    ++stats_.forwarded;
    next_->handle(held_.take(slot));
  });
}

void ImpairedLink::drop(const net::Packet& pkt, trace::EventClass cls,
                        std::string_view why) {
  if (ledger_ != nullptr) ledger_->on_fault_drop(pkt);
  if (trace_ != nullptr) {
    trace_->emit({sim_.now(), cls, pkt.flow, name_, pkt.seq, 0.0, 0.0, why});
  }
}

void ImpairedLink::set_link_down(bool down) {
  if (down_ == down) return;
  down_ = down;
  if (trace_ != nullptr) {
    trace_->emit({sim_.now(), trace::EventClass::kFaultLink, 0, name_, -1,
                  down ? 1.0 : 0.0, 0.0, down ? "down" : "up"});
  }
}

void ImpairedLink::register_counters(trace::CounterRegistry& reg) const {
  reg.add(name_ + ".arrived", &stats_.arrived);
  reg.add(name_ + ".forwarded", &stats_.forwarded);
  reg.add(name_ + ".loss_drops", &stats_.loss_drops);
  reg.add(name_ + ".burst_drops", &stats_.burst_drops);
  reg.add(name_ + ".down_drops", &stats_.down_drops);
  reg.add(name_ + ".corrupted", &stats_.corrupted);
  reg.add(name_ + ".reordered", &stats_.reordered);
  reg.add(name_ + ".duplicated", &stats_.duplicated);
}

void ImpairedLink::audit(std::vector<std::string>& problems) const {
  // Conservation at the link: every arrival and fabricated duplicate either
  // went downstream, was dropped, or is still held for re-injection.
  const std::uint64_t in = stats_.arrived + stats_.duplicated;
  const std::uint64_t out = stats_.forwarded + total_drops() + held_.size();
  if (in != out) {
    problems.push_back(name_ + ": packet books do not balance: arrived " +
                       std::to_string(stats_.arrived) + " + duplicated " +
                       std::to_string(stats_.duplicated) + " != forwarded " +
                       std::to_string(stats_.forwarded) + " + dropped " +
                       std::to_string(total_drops()) + " + held " +
                       std::to_string(held_.size()));
  }
}

}  // namespace greencc::fault
