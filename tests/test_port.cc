#include "net/port.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace greencc::net {
namespace {

using sim::SimTime;
using sim::Simulator;

class Collector : public PacketHandler {
 public:
  explicit Collector(Simulator& sim) : sim_(sim) {}
  void handle(Packet pkt) override {
    arrivals.emplace_back(sim_.now(), pkt);
  }
  std::vector<std::pair<SimTime, Packet>> arrivals;

 private:
  Simulator& sim_;
};

Packet pkt_of(std::int64_t seq, std::int32_t size) {
  Packet p;
  p.seq = seq;
  p.size_bytes = units::Bytes{size};
  return p;
}

TEST(QueuedPort, SerializationPlusPropagation) {
  Simulator sim;
  Collector sink(sim);
  PortConfig cfg;
  cfg.rate = units::BitRate::bps(10e9);
  cfg.propagation = SimTime::microseconds(5);
  QueuedPort port(sim, "p", cfg, &sink);
  port.handle(pkt_of(0, 1500));  // 1.2 us serialization
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first,
            SimTime::nanoseconds(1200) + SimTime::microseconds(5));
}

TEST(QueuedPort, BackToBackPacketsSpaceAtLineRate) {
  Simulator sim;
  Collector sink(sim);
  PortConfig cfg;
  cfg.rate = units::BitRate::bps(10e9);
  cfg.propagation = SimTime::zero();
  QueuedPort port(sim, "p", cfg, &sink);
  for (int i = 0; i < 3; ++i) port.handle(pkt_of(i, 1500));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].first, SimTime::nanoseconds(1200));
  EXPECT_EQ(sink.arrivals[1].first, SimTime::nanoseconds(2400));
  EXPECT_EQ(sink.arrivals[2].first, SimTime::nanoseconds(3600));
}

TEST(QueuedPort, PerPacketOverheadSlowsService) {
  Simulator sim;
  Collector sink(sim);
  PortConfig cfg;
  cfg.rate = units::BitRate::bps(10e9);
  cfg.propagation = SimTime::zero();
  cfg.per_packet_ns = 800.0;
  QueuedPort port(sim, "p", cfg, &sink);
  port.handle(pkt_of(0, 1500));
  sim.run();
  EXPECT_EQ(sink.arrivals[0].first, SimTime::nanoseconds(2000));
}

TEST(QueuedPort, IdlePortResumesCleanly) {
  Simulator sim;
  Collector sink(sim);
  PortConfig cfg;
  cfg.rate = units::BitRate::bps(10e9);
  cfg.propagation = SimTime::zero();
  QueuedPort port(sim, "p", cfg, &sink);
  port.handle(pkt_of(0, 1500));
  sim.run();
  // Second packet long after the first drained.
  sim.schedule(SimTime::microseconds(100) - sim.now(),
               [&] { port.handle(pkt_of(1, 1500)); });
  sim.run();
  EXPECT_EQ(sink.arrivals[1].first,
            SimTime::microseconds(100) + SimTime::nanoseconds(1200));
}

TEST(QueuedPort, TailDropWhenQueueFull) {
  Simulator sim;
  Collector sink(sim);
  PortConfig cfg;
  cfg.rate = units::BitRate::bps(1e9);
  cfg.queue_capacity_bytes = units::Bytes{3000};
  cfg.propagation = SimTime::zero();
  QueuedPort port(sim, "p", cfg, &sink);
  // First goes straight to the transmitter (leaves the queue immediately);
  // next two fill the queue; the rest drop.
  for (int i = 0; i < 6; ++i) port.handle(pkt_of(i, 1500));
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(port.queue_stats().dropped, 3u);
}

TEST(QueuedPort, DropServicePenaltyDelaysNextPacket) {
  Simulator sim;
  Collector sink(sim);
  PortConfig cfg;
  cfg.rate = units::BitRate::bps(10e9);
  cfg.propagation = SimTime::zero();
  cfg.queue_capacity_bytes = units::Bytes{1500};  // room for exactly one queued packet
  cfg.drop_service_ns = 1000.0;
  QueuedPort port(sim, "p", cfg, &sink);
  port.handle(pkt_of(0, 1500));  // transmitting
  port.handle(pkt_of(1, 1500));  // queued
  port.handle(pkt_of(2, 1500));  // dropped -> 1000 ns penalty
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, SimTime::nanoseconds(1200));
  // Packet 1's service charges the accumulated drop penalty.
  EXPECT_EQ(sink.arrivals[1].first, SimTime::nanoseconds(1200 + 1200 + 1000));
}

TEST(QueuedPort, AllDropSubscribersSeeEveryDrop) {
  // The drop site fans out to every subscriber in registration order: the
  // receiver's energy meter and the fault/test layers observe the same
  // drops without displacing one another.
  Simulator sim;
  Collector sink(sim);
  PortConfig cfg;
  cfg.rate = units::BitRate::bps(1e9);
  cfg.queue_capacity_bytes = units::Bytes{3000};
  cfg.propagation = SimTime::zero();
  QueuedPort port(sim, "p", cfg, &sink);
  std::vector<std::pair<int, std::int64_t>> calls;
  port.add_on_drop([&](units::Bytes b) { calls.emplace_back(1, b.count()); });
  port.set_on_drop([&](units::Bytes b) { calls.emplace_back(2, b.count()); });
  for (int i = 0; i < 5; ++i) port.handle(pkt_of(i, 1500));
  sim.run();
  ASSERT_EQ(port.queue_stats().dropped, 2u);
  ASSERT_EQ(calls.size(), 4u);
  EXPECT_EQ(calls[0], (std::pair<int, std::int64_t>{1, 1500}));
  EXPECT_EQ(calls[1], (std::pair<int, std::int64_t>{2, 1500}));
  EXPECT_EQ(calls[2], (std::pair<int, std::int64_t>{1, 1500}));
  EXPECT_EQ(calls[3], (std::pair<int, std::int64_t>{2, 1500}));
}

TEST(QueuedPort, MidRunRerateAndRedelayApplyToNextTransmission) {
  Simulator sim;
  Collector sink(sim);
  PortConfig cfg;
  cfg.rate = units::BitRate::bps(10e9);
  cfg.propagation = SimTime::zero();
  QueuedPort port(sim, "p", cfg, &sink);
  port.handle(pkt_of(0, 1500));  // 1.2 us at 10G
  sim.run();
  port.set_rate(units::BitRate::bps(1e9));
  port.set_propagation(SimTime::microseconds(7));
  sim.schedule(SimTime::microseconds(10) - sim.now(),
               [&] { port.handle(pkt_of(1, 1500)); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, SimTime::nanoseconds(1200));
  // 12 us serialization at the new rate plus the new propagation delay.
  EXPECT_EQ(sink.arrivals[1].first, SimTime::microseconds(10 + 12 + 7));
}

TEST(QueuedPort, ShorterPropagationLetsALaterPacketOvertake) {
  // Packet 0 leaves the transmitter onto a 100 us wire; the delay then
  // drops to 1 us while packet 1 is still serializing, so packet 1 (and 2,
  // which reuses packet 1's in-flight slot) arrive long before packet 0.
  // Every arrival must carry its own packet at its own time.
  Simulator sim;
  Collector sink(sim);
  PortConfig cfg;
  cfg.rate = units::BitRate::bps(10e9);
  cfg.propagation = SimTime::microseconds(100);
  QueuedPort port(sim, "p", cfg, &sink);
  for (int i = 0; i < 3; ++i) port.handle(pkt_of(i, 1500));  // 1.2 us each
  sim.schedule_at(SimTime::microseconds(2),
                  [&] { port.set_propagation(SimTime::microseconds(1)); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].first, SimTime::nanoseconds(2400 + 1000));
  EXPECT_EQ(sink.arrivals[0].second.seq, 1);
  EXPECT_EQ(sink.arrivals[1].first, SimTime::nanoseconds(3600 + 1000));
  EXPECT_EQ(sink.arrivals[1].second.seq, 2);
  EXPECT_EQ(sink.arrivals[2].first, SimTime::nanoseconds(1200 + 100'000));
  EXPECT_EQ(sink.arrivals[2].second.seq, 0);
}

TEST(QueuedPort, TransmitCallbackSeesWireBytes) {
  Simulator sim;
  Collector sink(sim);
  PortConfig cfg;
  QueuedPort port(sim, "p", cfg, &sink);
  std::int64_t seen = 0;
  port.set_on_transmit([&](units::Bytes b) { seen += b.count(); });
  port.handle(pkt_of(0, 1500));
  port.handle(pkt_of(1, 9000));
  sim.run();
  EXPECT_EQ(seen, 10'500);
  EXPECT_EQ(port.bytes_sent().count(), 10'500);
  EXPECT_EQ(port.packets_sent(), 2u);
}

}  // namespace
}  // namespace greencc::net
