// DrrPort against a reference copy of the list-with-index DRR scheduler it
// replaced (per-flow FIFOs, a vector of active flows, a round index that
// may point one past the end). The pooled port must reproduce the
// reference's departure order, timing and drops exactly: every simulated
// output that crosses a DRR port depends on that order.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/drr.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace greencc::net {
namespace {

using sim::SimTime;
using sim::Simulator;

/// The reference scheduler: the previous DrrPort's algorithm, verbatim in
/// its decisions, on plain standard containers.
class ReferenceDrr : public PacketHandler {
 public:
  ReferenceDrr(Simulator& sim, const DrrPort::Config& config,
               PacketHandler* next)
      : sim_(sim), config_(config), next_(next) {}

  void set_weight(FlowId flow, double weight) { flows_[flow].weight = weight; }

  void handle(Packet pkt) override {
    Flow& flow = flows_[pkt.flow];
    if (flow.bytes + pkt.size_bytes.count() >
        config_.per_flow_queue_bytes.count()) {
      ++dropped_;
      return;
    }
    flow.queue.push_back(pkt);
    flow.bytes += pkt.size_bytes.count();
    if (!flow.in_round) {
      flow.in_round = true;
      flow.deficit = 0;
      active_.push_back(pkt.flow);
    }
    if (!transmitting_) start_transmission();
  }

  std::uint64_t dropped() const { return dropped_; }

 private:
  struct Flow {
    std::deque<Packet> queue;
    std::int64_t bytes = 0;
    double weight = 1.0;
    std::int64_t deficit = 0;
    bool in_round = false;
  };

  void remove_current(Flow& flow) {
    flow.in_round = false;
    flow.deficit = 0;
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index_));
    topped_up_ = false;
  }

  void start_transmission() {
    while (!active_.empty()) {
      if (index_ >= active_.size()) index_ = 0;
      Flow& flow = flows_.at(active_[index_]);
      if (flow.queue.empty()) {
        remove_current(flow);
        continue;
      }
      if (!topped_up_) {
        flow.deficit += static_cast<std::int64_t>(
            flow.weight *
            static_cast<double>(config_.base_quantum_bytes.count()));
        topped_up_ = true;
      }
      if (flow.deficit >= flow.queue.front().size_bytes.count()) {
        const Packet pkt = flow.queue.front();
        flow.queue.pop_front();
        flow.bytes -= pkt.size_bytes.count();
        flow.deficit -= pkt.size_bytes.count();
        if (flow.queue.empty()) remove_current(flow);
        transmitting_ = true;
        sim_.schedule(pkt.size_bytes / config_.rate, [this, pkt] {
          sim_.schedule(config_.propagation,
                        [this, pkt] { next_->handle(pkt); });
          transmitting_ = false;
          start_transmission();
        });
        return;
      }
      ++index_;
      topped_up_ = false;
    }
    transmitting_ = false;
  }

  Simulator& sim_;
  DrrPort::Config config_;
  PacketHandler* next_;
  std::map<FlowId, Flow> flows_;
  std::vector<FlowId> active_;
  std::size_t index_ = 0;
  bool topped_up_ = false;
  bool transmitting_ = false;
  std::uint64_t dropped_ = 0;
};

struct Departure {
  FlowId flow;
  std::int64_t seq;
  std::int64_t at_ns;
  bool operator==(const Departure&) const = default;
};

class Recorder : public PacketHandler {
 public:
  explicit Recorder(Simulator& sim) : sim_(sim) {}
  void handle(Packet pkt) override {
    out.push_back({pkt.flow, pkt.seq, sim_.now().ns()});
  }
  std::vector<Departure> out;

 private:
  Simulator& sim_;
};

DrrPort::Config line_rate_config() {
  DrrPort::Config c;
  c.rate = units::BitRate::bps(10e9);
  c.propagation = SimTime::zero();
  return c;
}

Packet pkt_of(FlowId flow, std::int64_t seq, std::int32_t size = 1500) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = units::Bytes{size};
  return p;
}

std::string render(const std::vector<std::string>& problems) {
  std::string out;
  for (const auto& p : problems) out += p + "\n";
  return out;
}

// Uniform integer in [lo, hi].
std::int64_t pick(sim::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
}

// One random workload: bursts of arrivals from a sparse set of flows with
// random sizes and weights, separated now and then by idle gaps long enough
// for the port to drain, so flows keep leaving and rejoining the round and
// the round cursor regularly runs past the last flow.
TEST(DrrPool, MatchesReferenceSchedulerOnRandomWorkloads) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    sim::Rng rng(seed);
    DrrPort::Config config = line_rate_config();
    config.propagation = SimTime::nanoseconds(pick(rng, 0, 2'000));
    config.per_flow_queue_bytes = units::Bytes{pick(rng, 3'000, 80'000)};
    config.base_quantum_bytes = units::Bytes{pick(rng, 200, 9'018)};

    std::vector<FlowId> ids;
    const std::int64_t flows = pick(rng, 1, 16);
    for (std::int64_t i = 0; i < flows; ++i) {
      ids.push_back(static_cast<FlowId>(pick(rng, 0, 5'000)));  // any order
    }

    struct Arrival {
      std::int64_t at_ns;
      Packet pkt;
      double weight;  ///< > 0: set this flow's weight instead of sending
    };
    std::vector<Arrival> arrivals;
    std::int64_t t = 0;
    for (std::int64_t seq = 0; seq < 1'500; ++seq) {
      t += rng.bernoulli(0.02) ? pick(rng, 50'000, 400'000) : pick(rng, 0, 1'500);
      const FlowId flow = ids[static_cast<std::size_t>(
          pick(rng, 0, static_cast<std::int64_t>(ids.size()) - 1))];
      const double weight =
          rng.bernoulli(0.03) ? rng.uniform(0.05, 4.0) : 0.0;
      arrivals.push_back({t, pkt_of(flow, seq, static_cast<std::int32_t>(
                                                   pick(rng, 64, 9'018))),
                          weight});
    }

    Simulator sim_ref;
    Recorder ref_out(sim_ref);
    ReferenceDrr reference(sim_ref, config, &ref_out);
    Simulator sim_pool;
    Recorder pool_out(sim_pool);
    DrrPort pool(sim_pool, "drr", config, &pool_out);
    std::vector<std::string> problems;
    for (const Arrival& a : arrivals) {
      const SimTime at = SimTime::nanoseconds(a.at_ns);
      if (a.weight > 0.0) {
        sim_ref.schedule_at(at, [&reference, &a] {
          reference.set_weight(a.pkt.flow, a.weight);
        });
        sim_pool.schedule_at(
            at, [&pool, &a] { pool.set_weight(a.pkt.flow, a.weight); });
        continue;
      }
      sim_ref.schedule_at(at, [&reference, &a] { reference.handle(a.pkt); });
      sim_pool.schedule_at(at, [&pool, &a, &problems] {
        pool.handle(a.pkt);
        pool.audit(problems);
      });
    }
    sim_ref.run();
    sim_pool.run();

    ASSERT_TRUE(problems.empty()) << "seed " << seed << "\n"
                                  << render(problems);
    ASSERT_EQ(pool_out.out.size(), ref_out.out.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ref_out.out.size(); ++i) {
      ASSERT_EQ(pool_out.out[i], ref_out.out[i])
          << "seed " << seed << " departure " << i;
    }
    EXPECT_EQ(pool.dropped(), reference.dropped()) << "seed " << seed;
    EXPECT_GT(pool.dropped() + pool.packets_sent(), 0u);
    EXPECT_EQ(pool.total_queued_packets(), 0);
  }
}

// The round cursor runs past the end when the last listed flow sends its
// final packet. A flow that joins in that state is served next, before the
// head of the round; wrapping the cursor to the head instead would change
// every fleet output.
TEST(DrrPool, FlowJoiningPastTheEndIsServedBeforeTheHead) {
  Simulator sim;
  Recorder out(sim);
  DrrPort port(sim, "drr", line_rate_config(), &out);
  // 1500 B at 10 Gb/s = 1.2 us per packet; the 9018 B quantum covers six.
  for (int i = 0; i < 10; ++i) port.handle(pkt_of(1, i));
  port.handle(pkt_of(2, 100));
  // Flow 1 sends packets 0-6 (packet 0 alone, then a fresh quantum's six),
  // flow 2 sends its only packet from 8.4 to 9.6 us and leaves the round as
  // its last member. Flow 3 arrives during that serialization.
  sim.schedule_at(SimTime::nanoseconds(9'000),
                  [&port] { port.handle(pkt_of(3, 200)); });
  sim.run();

  std::vector<FlowId> order;
  for (const Departure& d : out.out) order.push_back(d.flow);
  const std::vector<FlowId> expected = {1, 1, 1, 1, 1, 1, 1, 2, 3, 1, 1, 1};
  EXPECT_EQ(order, expected);
}

// Runs `arrivals` (all at t = 0, weights set first) through both
// schedulers and returns {pool departures, reference departures}.
std::pair<std::vector<Departure>, std::vector<Departure>> run_both(
    const std::vector<std::pair<Packet, double>>& arrivals) {
  Simulator sim_ref;
  Recorder ref_out(sim_ref);
  ReferenceDrr reference(sim_ref, line_rate_config(), &ref_out);
  Simulator sim_pool;
  Recorder pool_out(sim_pool);
  DrrPort pool(sim_pool, "drr", line_rate_config(), &pool_out);
  for (const auto& [pkt, weight] : arrivals) {
    reference.set_weight(pkt.flow, weight);
    pool.set_weight(pkt.flow, weight);
  }
  for (const auto& [pkt, weight] : arrivals) {
    reference.handle(pkt);
    pool.handle(pkt);
  }
  sim_ref.run();
  sim_pool.run();
  return {pool_out.out, ref_out.out};
}

// A quantum of one byte is legal (set_weight accepts it), so a 9000-byte
// packet needs 9000 visits to its flow. With 20 such flows that is ~180k
// visits before the first departure, far past any fixed visit budget; the
// port skips the empty laps and must still depart in the reference order.
TEST(DrrPool, OneByteQuantaDepartInReferenceOrder) {
  std::vector<std::pair<Packet, double>> arrivals;
  for (FlowId flow = 0; flow < 20; ++flow) {
    arrivals.push_back({pkt_of(flow, flow, 9'000), 1.2e-4});  // quantum 1 B
  }
  const auto [pool, reference] = run_both(arrivals);
  ASSERT_EQ(pool.size(), 20u);
  EXPECT_EQ(pool, reference);
}

// Mixed tiny quanta and several packets per flow: laps are skipped at
// different deficits, and flows leave the round in between.
TEST(DrrPool, MixedTinyQuantaMatchReference) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Rng rng(seed);
    std::vector<std::pair<Packet, double>> arrivals;
    for (std::int64_t seq = 0; seq < 60; ++seq) {
      const auto flow = static_cast<FlowId>(pick(rng, 0, 7));
      // Weights 1.2e-4 .. 0.01 give quanta of 1 to 90 bytes.
      const double weight = 1.2e-4 + static_cast<double>(flow) * 1.4e-3;
      arrivals.push_back(
          {pkt_of(flow, seq, static_cast<std::int32_t>(pick(rng, 64, 9'000))),
           weight});
    }
    const auto [pool, reference] = run_both(arrivals);
    ASSERT_EQ(pool.size(), reference.size()) << "seed " << seed;
    EXPECT_EQ(pool, reference) << "seed " << seed;
  }
}

TEST(DrrPool, RejectsWeightWhoseQuantumIsBelowOneByte) {
  Simulator sim;
  Recorder out(sim);
  DrrPort port(sim, "drr", line_rate_config(), &out);
  // 1e-5 * 9018 B truncates to a zero quantum: such a flow could never
  // earn a packet, and the scheduler would spin on it.
  EXPECT_THROW(port.set_weight(1, 1e-5), std::invalid_argument);
  EXPECT_THROW(port.set_weight(1, std::nan("")), std::invalid_argument);

  DrrPort::Config tiny = line_rate_config();
  tiny.base_quantum_bytes = units::Bytes{2};
  DrrPort slow(sim, "slow", tiny, &out);
  EXPECT_THROW(slow.set_weight(1, 0.25), std::invalid_argument);
  slow.set_weight(1, 0.5);  // exactly one byte per visit still progresses
  slow.handle(pkt_of(1, 0));
  sim.run();
  ASSERT_EQ(out.out.size(), 1u);

  tiny.base_quantum_bytes = units::Bytes::zero();
  EXPECT_THROW(DrrPort(sim, "zero", tiny, &out), std::invalid_argument);
}

}  // namespace
}  // namespace greencc::net
