#include "fault/impairment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "check/ledger.h"
#include "fault/plan.h"
#include "fault/schedule.h"
#include "net/port.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace greencc::fault {
namespace {

using sim::SimTime;
using sim::Simulator;

class Collector : public net::PacketHandler {
 public:
  explicit Collector(Simulator& sim) : sim_(sim) {}
  void handle(net::Packet pkt) override {
    arrivals.emplace_back(sim_.now(), pkt);
  }
  std::vector<std::pair<SimTime, net::Packet>> arrivals;

 private:
  Simulator& sim_;
};

net::Packet pkt_of(std::int64_t seq, std::int32_t size = 1500) {
  net::Packet p;
  p.flow = 1;
  p.seq = seq;
  p.size_bytes = units::Bytes{size};
  return p;
}

FaultEvent event_at(SimTime at, FaultEvent::Kind kind) {
  FaultEvent event;
  event.at = at;
  event.kind = kind;
  return event;
}

// Offer `n` packets, one per microsecond, so delayed re-injections can
// interleave with later arrivals.
void offer_spaced(Simulator& sim, ImpairedLink& link, int n) {
  for (int i = 0; i < n; ++i) {
    sim.schedule_at(SimTime::microseconds(i),
                    [&link, i] { link.handle(pkt_of(i)); });
  }
  sim.run();
}

TEST(ImpairedLink, AllZeroConfigIsSynchronousPassThrough) {
  Simulator sim;
  Collector sink(sim);
  ImpairedLink link(sim, "imp", ImpairmentConfig{}, &sink);
  EXPECT_FALSE(ImpairmentConfig{}.any_random());
  link.handle(pkt_of(0));
  // Synchronous: delivered before the simulator even runs, so inserting the
  // disabled stage cannot perturb event ordering.
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, SimTime::zero());
  EXPECT_EQ(link.stats().arrived, 1u);
  EXPECT_EQ(link.stats().forwarded, 1u);
  EXPECT_EQ(link.total_drops(), 0u);
}

TEST(ImpairedLink, IidLossDropsNearConfiguredRate) {
  Simulator sim;
  Collector sink(sim);
  ImpairmentConfig cfg;
  cfg.loss_rate = 0.1;
  cfg.seed = 7;
  ImpairedLink link(sim, "imp", cfg, &sink);
  const int n = 10'000;
  offer_spaced(sim, link, n);
  EXPECT_NEAR(static_cast<double>(link.stats().loss_drops), 1000.0, 150.0);
  EXPECT_EQ(link.stats().arrived, static_cast<std::uint64_t>(n));
  EXPECT_EQ(link.stats().forwarded + link.stats().loss_drops,
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(sink.arrivals.size(), static_cast<std::size_t>(n) -
                                      link.stats().loss_drops);
}

TEST(ImpairedLink, GilbertElliottLossComesInBursts) {
  Simulator sim;
  Collector sink(sim);
  ImpairmentConfig cfg;
  cfg.ge_p_bad = 0.01;  // rare entry into the bad state...
  cfg.ge_p_good = 0.2;  // ...mean burst length 5 packets
  cfg.seed = 11;
  ImpairedLink link(sim, "imp", cfg, &sink);
  const int n = 10'000;
  offer_spaced(sim, link, n);
  ASSERT_GT(link.stats().burst_drops, 0u);
  EXPECT_EQ(link.stats().loss_drops, 0u);  // iid stage disabled

  // The same loss volume spread i.i.d. would almost never produce adjacent
  // drops; the chain must. Find the dropped seqs and look for a run >= 2.
  std::vector<bool> delivered(n, false);
  for (const auto& [t, p] : sink.arrivals) delivered[p.seq] = true;
  int best_run = 0;
  int run = 0;
  for (int i = 0; i < n; ++i) {
    run = delivered[i] ? 0 : run + 1;
    best_run = std::max(best_run, run);
  }
  EXPECT_GE(best_run, 2);
}

TEST(ImpairedLink, CorruptionForwardsMarkedPackets) {
  Simulator sim;
  Collector sink(sim);
  check::PacketLedger ledger;
  ImpairmentConfig cfg;
  cfg.corrupt_rate = 1.0;
  ImpairedLink link(sim, "imp", cfg, &sink);
  link.set_ledger(&ledger);
  offer_spaced(sim, link, 5);
  // Corrupted packets still traverse the wire (they cost bandwidth); the
  // loss is booked against the ledger at mark time.
  ASSERT_EQ(sink.arrivals.size(), 5u);
  for (const auto& [t, p] : sink.arrivals) EXPECT_TRUE(p.corrupted);
  EXPECT_EQ(link.stats().corrupted, 5u);
  EXPECT_EQ(link.total_drops(), 0u);
  EXPECT_EQ(ledger.data_fault_drops(1), 5);
}

TEST(ImpairedLink, CorruptedPacketLaterQueueDropDoesNotDoubleBook) {
  // The ledger books a corrupted packet once, at mark time; if congestion
  // happens to tail-drop it afterwards the congestive books must not count
  // it again.
  check::PacketLedger ledger;
  net::Packet p = pkt_of(0);
  p.corrupted = true;
  ledger.on_drop(p);
  EXPECT_EQ(ledger.data_drops(1), 0);
}

TEST(ImpairedLink, ReorderHoldsAndRedeliversEveryPacket) {
  Simulator sim;
  Collector sink(sim);
  ImpairmentConfig cfg;
  cfg.reorder_rate = 0.3;
  cfg.reorder_delay = SimTime::microseconds(10);
  cfg.seed = 3;
  ImpairedLink link(sim, "imp", cfg, &sink);
  const int n = 200;
  offer_spaced(sim, link, n);
  // Bounded: everything is delivered exactly once...
  ASSERT_EQ(sink.arrivals.size(), static_cast<std::size_t>(n));
  std::vector<bool> seen(n, false);
  bool out_of_order = false;
  std::int64_t prev = -1;
  for (const auto& [t, p] : sink.arrivals) {
    EXPECT_FALSE(seen[p.seq]);
    seen[p.seq] = true;
    if (p.seq < prev) out_of_order = true;
    prev = std::max(prev, p.seq);
  }
  // ...but held packets were overtaken by later ones.
  EXPECT_GT(link.stats().reordered, 0u);
  EXPECT_TRUE(out_of_order);
  EXPECT_EQ(link.held_packets(), 0);
}

TEST(ImpairedLink, DuplicationDeliversTheCopyToo) {
  Simulator sim;
  Collector sink(sim);
  check::PacketLedger ledger;
  ImpairmentConfig cfg;
  cfg.duplicate_rate = 1.0;
  ImpairedLink link(sim, "imp", cfg, &sink);
  link.set_ledger(&ledger);
  offer_spaced(sim, link, 4);
  EXPECT_EQ(sink.arrivals.size(), 8u);
  EXPECT_EQ(link.stats().duplicated, 4u);
  EXPECT_EQ(link.stats().forwarded, 8u);
  // Fabricated copies are credited to the injected column so receiver
  // arrivals stay balanced against sender transmissions.
  EXPECT_EQ(ledger.data_injected(1), 4);
}

TEST(ImpairedLink, JitterDelaysWithinBound) {
  Simulator sim;
  Collector sink(sim);
  ImpairmentConfig cfg;
  cfg.jitter_max = SimTime::microseconds(10);
  cfg.seed = 5;
  ImpairedLink link(sim, "imp", cfg, &sink);
  const int n = 100;
  offer_spaced(sim, link, n);
  ASSERT_EQ(sink.arrivals.size(), static_cast<std::size_t>(n));
  // Replay the link's private jitter stream (stage 5) to know when each
  // packet is due: jitter reorders deliveries, and every arrival must be
  // its own packet at its own time, not whichever was held longest.
  sim::Rng jitter(sim::mix_seed(cfg.seed, sim::site_hash("imp"), 5));
  bool any_delayed = false;
  bool any_overtaken = false;
  std::int64_t latest_seq = -1;
  std::vector<SimTime> due;
  for (int i = 0; i < n; ++i) {
    due.push_back(SimTime::microseconds(i) +
                  SimTime::nanoseconds(static_cast<std::int64_t>(
                      jitter.next_below(10'000))));
  }
  for (const auto& [t, p] : sink.arrivals) {
    const SimTime sent = SimTime::microseconds(p.seq);
    EXPECT_GE(t, sent);
    EXPECT_LT(t, sent + SimTime::microseconds(10));
    EXPECT_EQ(t, due[static_cast<std::size_t>(p.seq)]) << "seq " << p.seq;
    if (t > sent) any_delayed = true;
    if (p.seq < latest_seq) any_overtaken = true;
    latest_seq = std::max(latest_seq, p.seq);
  }
  EXPECT_TRUE(any_delayed);
  EXPECT_TRUE(any_overtaken);
  EXPECT_EQ(link.stats().jittered, static_cast<std::uint64_t>(n));
}

TEST(ImpairedLink, LinkDownDiscardsUntilBroughtUp) {
  Simulator sim;
  Collector sink(sim);
  check::PacketLedger ledger;
  ImpairedLink link(sim, "imp", ImpairmentConfig{}, &sink);
  link.set_ledger(&ledger);
  link.handle(pkt_of(0));
  link.set_link_down(true);
  EXPECT_TRUE(link.link_down());
  link.handle(pkt_of(1));
  link.handle(pkt_of(2));
  link.set_link_down(false);
  link.handle(pkt_of(3));
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].second.seq, 0);
  EXPECT_EQ(sink.arrivals[1].second.seq, 3);
  EXPECT_EQ(link.stats().down_drops, 2u);
  EXPECT_EQ(ledger.data_fault_drops(1), 2);
}

TEST(ImpairedLink, EmitsTypedTraceEventsPerFault) {
  Simulator sim;
  Collector sink(sim);
  trace::VectorTraceSink trace;
  ImpairmentConfig cfg;
  cfg.corrupt_rate = 1.0;
  cfg.duplicate_rate = 1.0;
  ImpairedLink link(sim, "imp", cfg, &sink);
  link.set_trace(&trace);
  offer_spaced(sim, link, 3);
  EXPECT_EQ(trace.count(trace::EventClass::kFaultCorrupt), 3u);
  EXPECT_EQ(trace.count(trace::EventClass::kFaultDuplicate), 3u);

  link.set_link_down(true);
  link.handle(pkt_of(9));
  EXPECT_EQ(trace.count(trace::EventClass::kFaultLink), 1u);
  EXPECT_EQ(trace.count(trace::EventClass::kFaultLoss), 1u);
}

TEST(ImpairedLink, AuditBalancesUnderMixedImpairment) {
  Simulator sim;
  Collector sink(sim);
  ImpairmentConfig cfg;
  cfg.loss_rate = 0.05;
  cfg.ge_p_bad = 0.01;
  cfg.ge_p_good = 0.3;
  cfg.corrupt_rate = 0.02;
  cfg.reorder_rate = 0.1;
  cfg.duplicate_rate = 0.05;
  cfg.jitter_max = SimTime::microseconds(3);
  cfg.seed = 23;
  ImpairedLink link(sim, "imp", cfg, &sink);
  offer_spaced(sim, link, 5'000);
  std::vector<std::string> problems;
  link.audit(problems);
  EXPECT_TRUE(problems.empty()) << problems.front();
  EXPECT_EQ(link.held_packets(), 0);
  EXPECT_EQ(link.stats().arrived + link.stats().duplicated,
            link.stats().forwarded + link.total_drops());
}

TEST(ImpairedLink, SameSeedSameFaults) {
  auto run = [](std::uint64_t seed) {
    Simulator sim;
    Collector sink(sim);
    ImpairmentConfig cfg;
    cfg.loss_rate = 0.1;
    cfg.duplicate_rate = 0.05;
    cfg.seed = seed;
    ImpairedLink link(sim, "imp", cfg, &sink);
    for (int i = 0; i < 2'000; ++i) link.handle(pkt_of(i));
    std::vector<std::int64_t> seqs;
    for (const auto& [t, p] : sink.arrivals) seqs.push_back(p.seq);
    return seqs;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(ImpairedLink, StagesDrawFromIndependentStreams) {
  // Enabling an unrelated stage must not shift which packets the loss stage
  // drops — each stage owns a private splitmix-derived stream.
  auto dropped = [](bool with_duplication) {
    Simulator sim;
    Collector sink(sim);
    ImpairmentConfig cfg;
    cfg.loss_rate = 0.1;
    cfg.seed = 99;
    if (with_duplication) cfg.duplicate_rate = 0.5;
    ImpairedLink link(sim, "imp", cfg, &sink);
    for (int i = 0; i < 2'000; ++i) link.handle(pkt_of(i));
    std::vector<bool> delivered(2'000, false);
    for (const auto& [t, p] : sink.arrivals) delivered[p.seq] = true;
    return delivered;
  };
  EXPECT_EQ(dropped(false), dropped(true));
}

TEST(FaultSchedule, FlapsTheLinkOnTime) {
  Simulator sim;
  Collector sink(sim);
  ImpairedLink link(sim, "imp", ImpairmentConfig{}, &sink);
  trace::VectorTraceSink trace;
  link.set_trace(&trace);
  FaultSchedule schedule;
  schedule.add(event_at(SimTime::microseconds(10),
                        FaultEvent::Kind::kLinkDown));
  schedule.add(event_at(SimTime::microseconds(20), FaultEvent::Kind::kLinkUp));
  schedule.arm(sim, nullptr, &link, &trace);
  for (int i = 0; i < 3; ++i) {
    // Offered at t = 5, 15, 25 us: before, during and after the outage.
    sim.schedule_at(SimTime::microseconds(5 + 10 * i),
                    [&link, i] { link.handle(pkt_of(i)); });
  }
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].second.seq, 0);
  EXPECT_EQ(sink.arrivals[1].second.seq, 2);
  EXPECT_EQ(link.stats().down_drops, 1u);
  EXPECT_EQ(schedule.fired(), 2u);
  EXPECT_EQ(trace.count(trace::EventClass::kFaultLink), 2u);
}

TEST(FaultSchedule, ReratesAndRedelaysThePortMidRun) {
  Simulator sim;
  Collector sink(sim);
  net::PortConfig port_cfg;
  port_cfg.rate = units::BitRate::bps(10e9);  // 1500 B = 1.2 us serialization
  port_cfg.propagation = SimTime::zero();
  net::QueuedPort port(sim, "p", port_cfg, &sink);
  FaultSchedule schedule;
  FaultEvent rate;
  rate.at = SimTime::microseconds(10);
  rate.kind = FaultEvent::Kind::kRate;
  rate.rate = units::BitRate::bps(1e9);  // 10x slower: 12 us serialization
  schedule.add(rate);
  FaultEvent delay;
  delay.at = SimTime::microseconds(10);
  delay.kind = FaultEvent::Kind::kDelay;
  delay.delay = SimTime::microseconds(50);
  schedule.add(delay);
  schedule.arm(sim, &port, nullptr, nullptr);
  port.handle(pkt_of(0));
  sim.schedule_at(SimTime::microseconds(20),
                  [&port] { port.handle(pkt_of(1)); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, SimTime::nanoseconds(1200));
  EXPECT_EQ(sink.arrivals[1].first,
            SimTime::microseconds(20) + SimTime::microseconds(12) +
                SimTime::microseconds(50));
  EXPECT_EQ(schedule.fired(), 2u);
}

TEST(FaultSchedule, ArmValidatesTargets) {
  Simulator sim;
  FaultSchedule down;
  down.add(event_at(SimTime::microseconds(1), FaultEvent::Kind::kLinkDown));
  EXPECT_THROW(down.arm(sim, nullptr, nullptr, nullptr), std::logic_error);

  FaultSchedule bad_rate;
  FaultEvent event;
  event.at = SimTime::microseconds(1);
  event.kind = FaultEvent::Kind::kRate;
  event.rate = units::BitRate::bps(0.0);
  bad_rate.add(event);
  Collector sink(sim);
  net::QueuedPort port(sim, "p", net::PortConfig{}, &sink);
  EXPECT_THROW(bad_rate.arm(sim, &port, nullptr, nullptr), std::logic_error);
}

TEST(FaultPlan, ParsesImpairmentSpec) {
  const ImpairmentConfig cfg = parse_impairments(
      "loss=1e-3,corrupt=1e-4,reorder=0.01,reorder_delay_us=200,dup=1e-3,"
      "jitter_us=50,ge_p=0.001,ge_r=0.1,ge_loss=0.9,seed=7");
  EXPECT_DOUBLE_EQ(cfg.loss_rate, 1e-3);
  EXPECT_DOUBLE_EQ(cfg.corrupt_rate, 1e-4);
  EXPECT_DOUBLE_EQ(cfg.reorder_rate, 0.01);
  EXPECT_EQ(cfg.reorder_delay, SimTime::microseconds(200));
  EXPECT_DOUBLE_EQ(cfg.duplicate_rate, 1e-3);
  EXPECT_EQ(cfg.jitter_max, SimTime::microseconds(50));
  EXPECT_DOUBLE_EQ(cfg.ge_p_bad, 0.001);
  EXPECT_DOUBLE_EQ(cfg.ge_p_good, 0.1);
  EXPECT_DOUBLE_EQ(cfg.ge_loss_bad, 0.9);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_TRUE(cfg.any_random());

  EXPECT_FALSE(parse_impairments("").any_random());
}

TEST(FaultPlan, RejectsMalformedImpairmentSpecs) {
  EXPECT_THROW(parse_impairments("frobnicate=1"), std::invalid_argument);
  EXPECT_THROW(parse_impairments("loss=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_impairments("loss=-0.1"), std::invalid_argument);
  EXPECT_THROW(parse_impairments("loss"), std::invalid_argument);
  EXPECT_THROW(parse_impairments("loss=abc"), std::invalid_argument);
  // A GE chain that can enter the bad state but never leave it.
  EXPECT_THROW(parse_impairments("ge_p=0.1"), std::invalid_argument);
}

TEST(FaultPlan, ParsesFaultEventSpec) {
  const FaultSchedule schedule =
      parse_fault_events("down@0.5,up@0.6,rate=5e9@1.0,delay_us=50@2.0");
  ASSERT_EQ(schedule.events().size(), 4u);
  EXPECT_EQ(schedule.events()[0].kind, FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(schedule.events()[0].at, SimTime::milliseconds(500));
  EXPECT_EQ(schedule.events()[1].kind, FaultEvent::Kind::kLinkUp);
  EXPECT_EQ(schedule.events()[2].kind, FaultEvent::Kind::kRate);
  EXPECT_DOUBLE_EQ(schedule.events()[2].rate.bps(), 5e9);
  EXPECT_EQ(schedule.events()[3].kind, FaultEvent::Kind::kDelay);
  EXPECT_EQ(schedule.events()[3].delay, SimTime::microseconds(50));

  EXPECT_THROW(parse_fault_events("down"), std::invalid_argument);
  EXPECT_THROW(parse_fault_events("warp@1.0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_events("rate=0@1.0"), std::invalid_argument);
}

TEST(FaultPlan, ActiveOnlyWhenInstalledOrScheduled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  plan.install = true;
  EXPECT_TRUE(plan.active());
  plan.install = false;
  plan.schedule.add(
      event_at(SimTime::microseconds(1), FaultEvent::Kind::kLinkDown));
  EXPECT_TRUE(plan.active());
}

}  // namespace
}  // namespace greencc::fault
