// Transport integration tests: sender + receiver wired through simple port
// topologies, exercising delivery, SACK recovery, RACK loss detection, TLP,
// RTO, ECN echo and application-limited sending.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cca/cca.h"
#include "check/check.h"
#include "energy/cpu.h"
#include "net/port.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"

namespace greencc::tcp {
namespace {

using sim::SimTime;
using sim::Simulator;

/// A two-endpoint harness: sender -> forward port -> receiver -> reverse
/// port -> sender. Ports are configurable to create loss.
struct Harness {
  explicit Harness(const std::string& cca_name = "reno",
                   net::PortConfig forward_config = {},
                   TcpConfig tcp_config = {}) {
    forward_config.propagation = SimTime::microseconds(5);
    net::PortConfig reverse_config;
    reverse_config.propagation = SimTime::microseconds(5);

    cca::CcaConfig cca_config;
    cca_config.mss_bytes = tcp_config.mss_bytes();
    auto cc = cca::make_cca(cca_name, cca_config);

    forward = std::make_unique<net::QueuedPort>(sim, "fwd", forward_config,
                                                nullptr);
    reverse = std::make_unique<net::QueuedPort>(sim, "rev", reverse_config,
                                                nullptr);
    sender = std::make_unique<TcpSender>(sim, /*flow=*/1, /*src=*/1,
                                         /*dst=*/2, tcp_config,
                                         std::move(cc), &core,
                                         forward.get());
    receiver = std::make_unique<TcpReceiver>(sim, 1, 2, tcp_config,
                                             reverse.get());
    forward->set_next(receiver.get());
    reverse->set_next(sender.get());
  }

  void transfer(std::int64_t bytes) {
    sender->add_app_data(units::Bytes{bytes});
    sender->mark_app_eof();
    sender->start();
    sim.run_until(SimTime::seconds(30.0));
  }

  Simulator sim;
  energy::CpuCore core;
  std::unique_ptr<net::QueuedPort> forward;
  std::unique_ptr<net::QueuedPort> reverse;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;
};

class AckCollector : public net::PacketHandler {
 public:
  void handle(net::Packet pkt) override { acks.push_back(pkt); }
  std::vector<net::Packet> acks;
};

TEST(TcpReceiver, SackBlocksListNewestArrivalsFirst) {
  // RFC 2018: the first block covers the newest arrival and the others the
  // next most recently changed ranges, so with many holes the sender still
  // hears about every range that arrived. Fifteen holes also wrap the
  // receiver's 12-entry hint ring.
  Simulator sim;
  AckCollector nic;
  TcpReceiver receiver(sim, 1, 2, TcpConfig{}, &nic);
  const auto data = [](std::int64_t seq) {
    net::Packet p;
    p.flow = 1;
    p.src = 1;
    p.dst = 2;
    p.seq = seq;
    p.size_bytes = units::Bytes{9000};
    return p;
  };
  const auto starts = [](const net::Packet& ack) {
    return std::vector<std::int64_t>{ack.sack[0].start, ack.sack[1].start,
                                     ack.sack[2].start};
  };
  const std::vector<std::int64_t> newest_first{150, 140, 130};
  receiver.handle(data(0));
  for (std::int64_t seq = 10; seq <= 150; seq += 10) receiver.handle(data(seq));
  ASSERT_FALSE(nic.acks.empty());
  EXPECT_EQ(nic.acks.back().ack_seq, 1);
  EXPECT_EQ(starts(nic.acks.back()), newest_first);
  // A spurious retransmission carries no block of its own: the blocks come
  // from the hints alone, still newest first.
  receiver.handle(data(0));
  EXPECT_EQ(starts(nic.acks.back()), newest_first);
}

TEST(Tcp, CleanTransferCompletes) {
  Harness h;
  h.transfer(1'000'000);
  EXPECT_TRUE(h.sender->complete());
  EXPECT_EQ(h.sender->stats().retransmissions, 0);
  EXPECT_EQ(h.sender->stats().timeouts, 0);
  EXPECT_EQ(h.receiver->rcv_nxt(), h.sender->snd_nxt());
}

#ifdef GREENCC_AUDIT
TEST(Tcp, BackwardsReleaseTimeTripsTheMonotoneCheck) {
  // A CPU work jitter above 1 (the scenario DSL rejects one) scales some
  // work items negative, so the core's release times run backwards. The
  // sender's release ring and RACK's transmit order are FIFOs only because
  // they never do, and the audit build says so at the offending send.
  check::ScopedFailureHandler guard(&check::throwing_failure_handler);
  Harness h;
  sim::Rng rng(1);
  h.core.set_jitter(&rng, 5.0);
  try {
    h.transfer(1'000'000);
    FAIL() << "a backwards release time went unnoticed";
  } catch (const check::CheckFailedError& e) {
    EXPECT_NE(e.info.message.find("runs backwards"), std::string::npos)
        << e.info.to_string();
  }
}
#endif

TEST(Tcp, CompletionCallbackFiresOnce) {
  Harness h;
  int called = 0;
  h.sender->set_on_complete([&] { ++called; });
  h.transfer(100'000);
  EXPECT_EQ(called, 1);
}

TEST(Tcp, SubMssDataStaysQueued) {
  // add_app_data only releases whole segments; a sub-MSS remainder waits
  // for more data (like a Nagle-ish sender without a push).
  Harness h;
  h.sender->add_app_data(units::Bytes{1});
  h.sender->start();
  h.sim.run_until(SimTime::seconds(1.0));
  EXPECT_FALSE(h.sender->complete());
  EXPECT_EQ(h.sender->snd_nxt(), 0);
  // Topping it up past one MSS releases the segment.
  h.sender->add_app_data(units::Bytes{9000});
  h.sender->mark_app_eof();
  h.sender->start();
  h.sim.run_until(SimTime::seconds(2.0));
  EXPECT_TRUE(h.sender->complete());
  EXPECT_EQ(h.sender->snd_nxt(), 1);
}

TEST(Tcp, NotCompleteWithoutAppEof) {
  // A drained token bucket is not a finished transfer.
  Harness h;
  h.sender->add_app_data(units::Bytes{100'000});
  h.sender->start();
  h.sim.run_until(SimTime::seconds(1.0));
  EXPECT_FALSE(h.sender->complete());
  h.sender->mark_app_eof();
  EXPECT_TRUE(h.sender->complete());
}

TEST(Tcp, RttEstimateMatchesPath) {
  Harness h;
  h.transfer(2'000'000);
  // Path: 2 x 5 us propagation + serialization + receiver delack.
  EXPECT_GT(h.sender->rtt().srtt(), SimTime::microseconds(10));
  EXPECT_LT(h.sender->rtt().srtt(), SimTime::milliseconds(2));
}

TEST(Tcp, RecoversFromTailDropsWithoutSpuriousRetx) {
  // A shallow bottleneck queue forces drops; every retransmission should
  // correspond to a genuinely dropped packet (no spurious retx).
  net::PortConfig narrow;
  narrow.rate = units::BitRate::bps(1e9);
  narrow.queue_capacity_bytes = units::Bytes{30'000};
  Harness h("reno", narrow);
  h.transfer(5'000'000);
  EXPECT_TRUE(h.sender->complete());
  const auto drops = h.forward->queue_stats().dropped;
  EXPECT_GT(drops, 0u);
  // TLP probes may retransmit a delivered segment; allow a small surplus.
  EXPECT_LE(h.sender->stats().retransmissions,
            static_cast<std::int64_t>(drops) + 2 * h.sender->stats().timeouts +
                10);
  EXPECT_EQ(h.receiver->rcv_nxt(), h.sender->snd_nxt());
}

TEST(Tcp, SackRecoveryAvoidsRtoOnIsolatedLoss) {
  net::PortConfig narrow;
  narrow.rate = units::BitRate::bps(1e9);
  narrow.queue_capacity_bytes = units::Bytes{40'000};
  Harness h("cubic", narrow);
  h.transfer(3'000'000);
  EXPECT_TRUE(h.sender->complete());
  EXPECT_GT(h.forward->queue_stats().dropped, 0u);
  EXPECT_EQ(h.sender->stats().timeouts, 0);
}

TEST(Tcp, DuplicateDataIsAckedNotDelivered) {
  net::PortConfig narrow;
  narrow.rate = units::BitRate::bps(1e9);
  narrow.queue_capacity_bytes = units::Bytes{30'000};
  Harness h("reno", narrow);
  h.transfer(5'000'000);
  // Receiver counted some duplicates only if spurious retx occurred; either
  // way rcv_nxt must equal the stream length exactly once.
  EXPECT_EQ(h.receiver->rcv_nxt(), h.sender->snd_nxt());
}

/// A handler that drops everything — a blackhole for RTO tests.
class Blackhole : public net::PacketHandler {
 public:
  void handle(net::Packet) override {}
};

TEST(Tcp, RtoFiresOnTotalBlackhole) {
  Simulator sim;
  energy::CpuCore core;
  Blackhole hole;
  TcpConfig config;
  cca::CcaConfig cca_config;
  cca_config.mss_bytes = config.mss_bytes();
  TcpSender sender(sim, 1, 1, 2, config, cca::make_cca("reno", cca_config),
                   &core, &hole);
  sender.add_app_data(units::Bytes{100'000});
  sender.start();
  sim.run_until(SimTime::seconds(5.0));
  EXPECT_FALSE(sender.complete());
  EXPECT_GE(sender.stats().timeouts, 2);  // backed-off retries
}

TEST(Tcp, TlpConvertsTailLossIntoFastRecovery) {
  // Drop exactly the last packets of the transfer by shrinking the queue
  // late: easier variant — a queue sized so the final burst overflows.
  net::PortConfig narrow;
  narrow.rate = units::BitRate::bps(500e6);
  narrow.queue_capacity_bytes = units::Bytes{20'000};
  Harness h("reno", narrow);
  h.transfer(400'000);
  EXPECT_TRUE(h.sender->complete());
  // With TLP the total stall count stays small even with tail drops.
  EXPECT_LE(h.sender->stats().timeouts, 1);
}

TEST(Tcp, EcnEchoReachesSender) {
  net::PortConfig marking;
  marking.rate = units::BitRate::bps(1e9);
  marking.ecn_threshold_bytes = units::Bytes{20'000};
  Harness h("dctcp", marking);
  h.transfer(5'000'000);
  EXPECT_TRUE(h.sender->complete());
  EXPECT_GT(h.forward->queue_stats().ecn_marked, 0u);
  EXPECT_GT(h.sender->stats().ecn_echoes, 0);
  // DCTCP holds the queue near the threshold instead of overflowing it.
  EXPECT_EQ(h.forward->queue_stats().dropped, 0u);
}

TEST(Tcp, NonEcnFlowNeverMarked) {
  net::PortConfig marking;
  marking.rate = units::BitRate::bps(1e9);
  marking.ecn_threshold_bytes = units::Bytes{20'000};
  Harness h("reno", marking);
  h.transfer(2'000'000);
  EXPECT_EQ(h.forward->queue_stats().ecn_marked, 0u);
  EXPECT_EQ(h.sender->stats().ecn_echoes, 0);
}

TEST(Tcp, PacedSenderSmoothsBursts) {
  // BBR paces: the forward queue should stay shallow compared to a
  // window-dumping sender.
  net::PortConfig cfg;
  cfg.rate = units::BitRate::bps(10e9);
  Harness bbr_h("bbr", cfg);
  bbr_h.transfer(20'000'000);
  Harness reno_h("reno", cfg);
  reno_h.transfer(20'000'000);
  EXPECT_TRUE(bbr_h.sender->complete());
  EXPECT_TRUE(reno_h.sender->complete());
  EXPECT_LE(bbr_h.forward->queue_stats().max_bytes_seen,
            reno_h.forward->queue_stats().max_bytes_seen);
}

TEST(Tcp, InflightBoundedByLargestWindow) {
  // The pipe may transiently exceed the *current* window right after a
  // multiplicative decrease, but it can never exceed the largest window
  // granted so far (plus the one TLP probe).
  Harness h("reno");
  h.sender->add_app_data(units::Bytes{10'000'000});
  h.sender->start();
  std::int64_t max_cwnd = 0;
  for (int t = 1; t < 200; ++t) {
    h.sim.run_until(SimTime::microseconds(t * 100));
    max_cwnd = std::max(max_cwnd,
                        static_cast<std::int64_t>(
                            h.sender->congestion_control().cwnd_segments()));
    ASSERT_GE(h.sender->inflight_segments(), 0);
    ASSERT_LE(h.sender->inflight_segments(), max_cwnd + 1);
  }
}

TEST(Tcp, StatsCountSegmentsConsistently) {
  Harness h;
  h.transfer(1'000'000);
  const auto& s = h.sender->stats();
  EXPECT_EQ(s.segments_sent - s.retransmissions, h.sender->snd_nxt());
  EXPECT_EQ(s.delivered_segments, h.sender->snd_nxt());
  EXPECT_GT(s.acks_received, 0);
}

TEST(Tcp, AppLimitedFlowIdlesBetweenGrants) {
  Harness h;
  h.sender->add_app_data(units::Bytes{50'000});
  h.sender->start();
  h.sim.run_until(SimTime::seconds(1.0));
  const auto sent_before = h.sender->stats().segments_sent;
  // Backlog drained but no EOF: the flow idles, not completes.
  EXPECT_FALSE(h.sender->complete());
  EXPECT_GT(sent_before, 0);
  // Granting more data resumes the flow.
  h.sender->add_app_data(units::Bytes{50'000});
  h.sender->mark_app_eof();
  h.sender->start();
  h.sim.run_until(SimTime::seconds(31.0));
  EXPECT_GT(h.sender->stats().segments_sent, sent_before);
  EXPECT_TRUE(h.sender->complete());
}

TEST(Tcp, DelayedAckReducesAckTraffic) {
  Harness h;
  h.transfer(10'000'000);
  // With delack=2 the receiver sends roughly one ACK per two segments.
  EXPECT_LT(h.receiver->acks_sent(),
            h.receiver->segments_received() * 3 / 4 + 10);
  EXPECT_GT(h.receiver->acks_sent(), h.receiver->segments_received() / 3);
}

}  // namespace
}  // namespace greencc::tcp
