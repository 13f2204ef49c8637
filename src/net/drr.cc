#include "net/drr.h"

#include <algorithm>
#include <stdexcept>

#include "check/check.h"
#include "check/ledger.h"

namespace greencc::net {

DrrPort::DrrPort(sim::Simulator& sim, std::string name, const Config& config,
                 PacketHandler* next)
    : sim_(sim), name_(std::move(name)), config_(config), next_(next) {
  if (config_.base_quantum_bytes < units::Bytes{1}) {
    throw std::invalid_argument(
        "DrrPort: base_quantum_bytes must be at least 1 byte");
  }
}

std::uint32_t DrrPort::slot_of(FlowId flow) {
  if (const std::uint32_t* slot = slots_.find(flow)) return *slot;
  const auto slot = static_cast<std::uint32_t>(flows_.size());
  FlowState& state = flows_.emplace_back();
  state.flow = flow;
  state.quantum = config_.base_quantum_bytes;
  slots_[flow] = slot;
  return slot;
}

void DrrPort::set_weight(FlowId flow, double weight) {
  const double quantum =
      weight * static_cast<double>(config_.base_quantum_bytes.count());
  // Negated so that NaN is rejected too.
  if (!(quantum >= 1.0)) {
    throw std::invalid_argument(
        "DrrPort::set_weight: weight * base quantum must be at least 1 byte");
  }
  flows_[slot_of(flow)].quantum =
      units::Bytes{static_cast<std::int64_t>(quantum)};
}

units::Bytes DrrPort::queued_bytes(FlowId flow) const {
  const std::uint32_t* slot = slots_.find(flow);
  return slot == nullptr ? units::Bytes::zero() : flows_[*slot].queued_bytes;
}

units::Bytes DrrPort::total_queued_bytes() const {
  units::Bytes total;
  for (const FlowState& state : flows_) total += state.queued_bytes;
  return total;
}

std::int64_t DrrPort::total_queued_packets() const {
  std::int64_t total = 0;
  for (const FlowState& state : flows_) total += state.queued_packets;
  return total;
}

void DrrPort::audit(std::vector<std::string>& problems) const {
  auto flow_tag = [](const FlowState& state) {
    return "flow " + std::to_string(state.flow);
  };

  // Walk the active ring once, marking each listed slot; a repeat or a
  // one-sided link ends the walk (a corrupted ring may not return to head).
  std::vector<bool> listed(flows_.size(), false);
  bool cursor_listed = current_ == kNil;
  if (head_ != kNil) {
    std::uint32_t slot = head_;
    do {
      if (slot >= flows_.size()) {
        problems.push_back("active list holds unknown flow slot " +
                           std::to_string(slot));
        break;
      }
      const FlowState& state = flows_[slot];
      if (listed[slot]) {
        problems.push_back(flow_tag(state) +
                           " appears more than once on the active list");
        break;
      }
      listed[slot] = true;
      if (slot == current_) cursor_listed = true;
      if (!state.in_round) {
        problems.push_back(flow_tag(state) +
                           " on the active list but not marked in_round");
      }
      if (state.next >= flows_.size() || flows_[state.next].prev != slot) {
        problems.push_back(flow_tag(state) +
                           " has a broken active-list link");
        break;
      }
      slot = state.next;
    } while (slot != head_);
  }
  if (!cursor_listed) {
    problems.push_back("round cursor at slot " + std::to_string(current_) +
                       " which is not on the active list");
  }

  std::int64_t queued = 0;
  for (std::size_t slot = 0; slot < flows_.size(); ++slot) {
    const FlowState& state = flows_[slot];
    const std::string tag = flow_tag(state);
    if (state.in_round != listed[slot]) {
      problems.push_back(tag + " in_round=" +
                         (state.in_round ? "true" : "false") +
                         " disagrees with active-list membership");
    }
    // A backlogged flow must be scheduled, unless the head packet of a
    // transmission is still serializing (then the flow re-enters on the
    // completion event). in_round=false with a backlog is only legal while
    // transmitting_ covers exactly that window.
    if (state.queued_packets > 0 && !state.in_round && !transmitting_) {
      problems.push_back(tag + " backlogged but absent from an idle scheduler");
    }
    if (state.deficit < units::Bytes::zero()) {
      problems.push_back(tag + " has negative deficit " +
                         std::to_string(state.deficit.count()));
    }
    if (!state.in_round && state.deficit != units::Bytes::zero()) {
      problems.push_back(tag + " carries deficit " +
                         std::to_string(state.deficit.count()) +
                         " while out of the round");
    }
    if (state.quantum < units::Bytes{1}) {
      problems.push_back(tag + " has quantum " +
                         std::to_string(state.quantum.count()) +
                         " below 1 byte");
    }
    // Re-derive the flow's books from its packet list (at most one step
    // per pool node, so a cycle cannot hang the audit).
    units::Bytes listed_bytes;
    std::uint32_t listed_packets = 0;
    std::uint32_t last = kNil;
    for (std::uint32_t node = state.head;
         node != kNil && listed_packets <= pool_.size();
         node = pool_[node].next) {
      if (node >= pool_.size()) {
        problems.push_back(tag + " queue links to unknown pool node " +
                           std::to_string(node));
        break;
      }
      listed_bytes += pool_[node].pkt.size_bytes;
      ++listed_packets;
      last = node;
    }
    if (listed_bytes != state.queued_bytes ||
        listed_packets != state.queued_packets) {
      problems.push_back(tag + " queue: cached " +
                         std::to_string(state.queued_bytes.count()) +
                         " bytes in " + std::to_string(state.queued_packets) +
                         " packets != listed " +
                         std::to_string(listed_bytes.count()) + " bytes in " +
                         std::to_string(listed_packets) + " packets");
    }
    if (last != state.tail) {
      problems.push_back(tag + " queue tail does not end its packet list");
    }
    queued += state.queued_packets;
  }

  std::size_t free_nodes = 0;
  for (std::uint32_t node = free_; node != kNil && free_nodes <= pool_.size();
       node = pool_[node].next) {
    if (node >= pool_.size()) {
      problems.push_back("free list links to unknown pool node " +
                         std::to_string(node));
      break;
    }
    ++free_nodes;
  }
  const auto live = static_cast<std::int64_t>(pool_.size()) -
                    static_cast<std::int64_t>(free_nodes);
  if (live != queued) {
    problems.push_back("packet pool holds " + std::to_string(live) +
                       " live nodes but flows queue " +
                       std::to_string(queued) + " packets");
  }
}

void DrrPort::join_round(std::uint32_t slot) {
  FlowState& state = flows_[slot];
  state.in_round = true;
  state.deficit = units::Bytes::zero();
  if (head_ == kNil) {
    head_ = slot;
    state.prev = state.next = slot;
  } else {
    const std::uint32_t tail = flows_[head_].prev;
    state.prev = tail;
    state.next = head_;
    flows_[tail].next = slot;
    flows_[head_].prev = slot;
  }
  if (current_ == kNil) current_ = slot;
}

void DrrPort::leave_round() {
  FlowState& state = flows_[current_];
  state.in_round = false;
  state.deficit = units::Bytes::zero();
  topped_up_ = false;
  if (state.next == current_) {  // the only flow in the round
    head_ = current_ = kNil;
    return;
  }
  flows_[state.prev].next = state.next;
  flows_[state.next].prev = state.prev;
  const bool was_last = state.next == head_;
  if (current_ == head_) head_ = state.next;
  current_ = was_last ? kNil : state.next;
}

void DrrPort::handle(Packet pkt) {
  const std::uint32_t slot = slot_of(pkt.flow);
  if (flows_[slot].queued_bytes + pkt.size_bytes >
      config_.per_flow_queue_bytes) {
    ++dropped_;
    if (ledger_) ledger_->on_drop(pkt);
    return;
  }
  std::uint32_t node = free_;
  if (node != kNil) {
    free_ = pool_[node].next;
    pool_[node] = {pkt, kNil};
  } else {
    node = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back({pkt, kNil});
  }
  FlowState& state = flows_[slot];
  if (state.tail == kNil) {
    state.head = node;
  } else {
    pool_[state.tail].next = node;
  }
  state.tail = node;
  state.queued_bytes += pkt.size_bytes;
  ++state.queued_packets;
  if (!state.in_round) join_round(slot);
  if (!transmitting_) start_transmission();
}

void DrrPort::start_transmission() {
  // Classic DRR, one packet per transmission slot: visit flows round-robin,
  // top each flow's deficit up by its quantum on arrival, and send its head
  // packets while the deficit covers them. A flow that empties leaves the
  // round (and forfeits its deficit); a flow whose deficit is exhausted
  // keeps the remainder for its next visit.
  if (head_ == kNil) {
    transmitting_ = false;
    return;
  }
  if (current_ == kNil) current_ = head_;
  const std::uint32_t lap_start = current_;
  bool skipped = false;
  for (;;) {
    FlowState& state = flows_[current_];
    GREENCC_DCHECK(state.queued_packets > 0)
        << "DrrPort " << name_ << ": flow " << state.flow
        << " is in the round with an empty queue";

    if (!topped_up_) {
      state.deficit += state.quantum;
      topped_up_ = true;
    }

    const std::uint32_t node = state.head;
    if (state.deficit >= pool_[node].pkt.size_bytes) {
      serializing_ = pool_[node].pkt;
      state.head = pool_[node].next;
      if (state.head == kNil) state.tail = kNil;
      pool_[node].next = free_;
      free_ = node;
      state.queued_bytes -= serializing_.size_bytes;
      --state.queued_packets;
      state.deficit -= serializing_.size_bytes;
      if (state.queued_packets == 0) leave_round();
      transmitting_ = true;
      ++packets_sent_;
      const sim::SimTime ser = serializing_.size_bytes / config_.rate;
      sim_.schedule(ser, [this] { on_serialized(); });
      return;
    }

    // Deficit exhausted for this visit: move on, keeping the remainder.
    // Nothing leaves or joins the round inside this loop, so the walk may
    // wrap to the head directly instead of parking the cursor past the end.
    current_ = state.next;
    topped_up_ = false;
    if (current_ == lap_start) {
      // A whole lap sent nothing. After one skip the next lap must send.
      GREENCC_CHECK(!skipped)
          << "DrrPort " << name_ << ": scheduler failed to make progress, "
          << "round cursor at slot " << current_ << ", total backlog "
          << total_queued_bytes().count() << " bytes";
      skip_fruitless_laps();
      skipped = true;
    }
  }
}

void DrrPort::skip_fruitless_laps() {
  // Flow i first covers its head packet after need_i more top-ups; no flow
  // sends during the min(need) - 1 laps before that, so credit them at once.
  std::int64_t laps = std::numeric_limits<std::int64_t>::max();
  std::uint32_t slot = head_;
  do {
    const FlowState& state = flows_[slot];
    const std::int64_t short_by =
        (pool_[state.head].pkt.size_bytes - state.deficit).count();
    const std::int64_t quantum = state.quantum.count();
    laps = std::min(laps, (short_by + quantum - 1) / quantum);
    slot = state.next;
  } while (slot != head_);
  do {
    FlowState& state = flows_[slot];
    state.deficit += state.quantum * (laps - 1);
    slot = state.next;
  } while (slot != head_);
}

void DrrPort::on_serialized() {
  const std::uint32_t slot = propagating_.put(serializing_);
  sim_.schedule(config_.propagation,
                [this, slot] { next_->handle(propagating_.take(slot)); });
  transmitting_ = false;
  start_transmission();
}

}  // namespace greencc::net
