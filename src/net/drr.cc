#include "net/drr.h"

#include <algorithm>
#include <stdexcept>

#include "check/check.h"
#include "check/ledger.h"

namespace greencc::net {

DrrPort::FlowState& DrrPort::flow_state(FlowId flow) {
  FlowState& state = flows_[flow];
  if (!state.queue) {
    state.queue =
        std::make_unique<DropTailQueue>(config_.per_flow_queue_bytes);
    state.queue->set_ledger(ledger_);
  }
  return state;
}

void DrrPort::set_ledger(check::PacketLedger* ledger) {
  ledger_ = ledger;
  flows_.for_each(
      [ledger](FlowId, FlowState& state) { state.queue->set_ledger(ledger); });
}

void DrrPort::set_weight(FlowId flow, double weight) {
  if (weight <= 0.0) {
    throw std::invalid_argument("DrrPort::set_weight: weight must be > 0");
  }
  flow_state(flow).weight = weight;
}

units::Bytes DrrPort::queued_bytes(FlowId flow) const {
  const FlowState* state = flows_.find(flow);
  return state == nullptr ? units::Bytes::zero() : state->queue->bytes();
}

units::Bytes DrrPort::total_queued_bytes() const {
  units::Bytes total;
  flows_.for_each([&total](FlowId, const FlowState& state) {
    total += state.queue->bytes();
  });
  return total;
}

std::int64_t DrrPort::total_queued_packets() const {
  std::int64_t total = 0;
  flows_.for_each([&total](FlowId, const FlowState& state) {
    total += static_cast<std::int64_t>(state.queue->packets());
  });
  return total;
}

void DrrPort::audit(std::vector<std::string>& problems) const {
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const FlowId flow = active_[i];
    const FlowState* state = flows_.find(flow);
    if (state == nullptr) {
      problems.push_back("active list holds unknown flow " +
                         std::to_string(flow));
      continue;
    }
    if (!state->in_round) {
      problems.push_back("flow " + std::to_string(flow) +
                         " on the active list but not marked in_round");
    }
    if (std::count(active_.begin(), active_.end(), flow) > 1) {
      problems.push_back("flow " + std::to_string(flow) +
                         " appears more than once on the active list");
    }
  }
  flows_.for_each([&](FlowId flow, const FlowState& state) {
    const bool listed =
        std::find(active_.begin(), active_.end(), flow) != active_.end();
    if (state.in_round != listed) {
      problems.push_back("flow " + std::to_string(flow) + " in_round=" +
                         (state.in_round ? "true" : "false") +
                         " disagrees with active-list membership");
    }
    // A backlogged flow must be scheduled — unless the head packet of a
    // transmission is still serializing (then the flow re-enters on the
    // completion event). in_round=false with a backlog is only legal while
    // transmitting_ covers exactly that window.
    if (!state.queue->empty() && !state.in_round && !transmitting_) {
      problems.push_back("flow " + std::to_string(flow) +
                         " backlogged but absent from an idle scheduler");
    }
    if (state.deficit < units::Bytes::zero()) {
      problems.push_back("flow " + std::to_string(flow) +
                         " has negative deficit " +
                         std::to_string(state.deficit.count()));
    }
    if (!state.in_round && state.deficit != units::Bytes::zero()) {
      problems.push_back("flow " + std::to_string(flow) + " carries deficit " +
                         std::to_string(state.deficit.count()) +
                         " while out of the round");
    }
    if (state.weight <= 0.0) {
      problems.push_back("flow " + std::to_string(flow) +
                         " has non-positive weight " +
                         std::to_string(state.weight));
    }
    const std::size_t before = problems.size();
    state.queue->audit(problems);
    for (std::size_t i = before; i < problems.size(); ++i) {
      problems[i] = "flow " + std::to_string(flow) + " queue: " + problems[i];
    }
  });
  if (round_index_ > active_.size()) {
    problems.push_back("round index " + std::to_string(round_index_) +
                       " beyond active list size " +
                       std::to_string(active_.size()));
  }
}

void DrrPort::handle(Packet pkt) {
  FlowState& state = flow_state(pkt.flow);
  if (!state.queue->enqueue(pkt, sim_.now())) {
    ++dropped_;
    return;
  }
  if (!state.in_round) {
    state.in_round = true;
    state.deficit = units::Bytes::zero();
    active_.push_back(pkt.flow);
  }
  if (!transmitting_) start_transmission();
}

void DrrPort::start_transmission() {
  // Classic DRR, one packet per transmission slot: visit flows round-robin,
  // top each flow's deficit up by weight * quantum on arrival, and send its
  // head packets while the deficit covers them. A flow that empties leaves
  // the round (and forfeits its deficit); a flow whose deficit is exhausted
  // keeps the remainder for its next visit.
  int safety = 100'000;  // progress is guaranteed; this guards regressions
  while (!active_.empty()) {
    --safety;
    GREENCC_CHECK(safety > 0)
        << "DrrPort " << name_ << ": scheduler failed to make progress with "
        << active_.size() << " active flow(s), round_index=" << round_index_
        << ", total backlog " << total_queued_bytes().count() << " bytes";
    if (safety <= 0) break;
    if (round_index_ >= active_.size()) round_index_ = 0;
    const FlowId flow = active_[round_index_];
    FlowState& state = flows_.at(flow);

    if (state.queue->empty()) {
      state.in_round = false;
      state.deficit = units::Bytes::zero();
      active_.erase(active_.begin() +
                    static_cast<std::ptrdiff_t>(round_index_));
      topped_up_ = false;
      continue;
    }

    if (!topped_up_) {
      state.deficit += units::Bytes{static_cast<std::int64_t>(
          state.weight *
          static_cast<double>(config_.base_quantum_bytes.count()))};
      topped_up_ = true;
    }

    const Packet* head = state.queue->peek();
    if (state.deficit >= head->size_bytes) {
      serializing_ = *state.queue->dequeue(sim_.now());
      state.deficit -= serializing_.size_bytes;
      if (state.queue->empty()) {
        state.in_round = false;
        state.deficit = units::Bytes::zero();
        active_.erase(active_.begin() +
                      static_cast<std::ptrdiff_t>(round_index_));
        topped_up_ = false;
      }
      transmitting_ = true;
      ++packets_sent_;
      const sim::SimTime ser = serializing_.size_bytes / config_.rate;
      sim_.schedule(ser, [this] { on_serialized(); });
      return;
    }

    // Deficit exhausted for this visit: move on, keeping the remainder.
    ++round_index_;
    topped_up_ = false;
  }
  transmitting_ = false;
}

void DrrPort::on_serialized() {
  const std::uint32_t slot = propagating_.put(serializing_);
  sim_.schedule(config_.propagation,
                [this, slot] { next_->handle(propagating_.take(slot)); });
  transmitting_ = false;
  start_transmission();
}

}  // namespace greencc::net
