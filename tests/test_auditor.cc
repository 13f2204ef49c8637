// InvariantAuditor tests: a healthy topology audits clean, and — the part
// that matters — every invariant class demonstrably FIRES on corrupted
// state. Each corruption test breaks exactly one private field through
// check::AuditCorruptor (befriended by the audited classes) or feeds a raw
// audit seam with impossible values, then asserts the auditor reports that
// specific invariant. A checker that cannot fail verifies nothing.

#include "check/auditor.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "app/scenario.h"
#include "cca/cca.h"
#include "check/check.h"
#include "energy/cpu.h"
#include "net/drr.h"
#include "net/packet.h"
#include "net/port.h"
#include "net/queue.h"
#include "net/switch.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"
#include "trace/trace.h"

namespace greencc::check {

/// Test-only backdoor into the audited classes' private state. Each method
/// breaks one specific book so the matching invariant must fire.
struct AuditCorruptor {
  static void add_phantom_bytes(net::DropTailQueue& q, std::int64_t delta) {
    q.bytes_ += units::Bytes{delta};
  }
  static void forge_enqueue_count(net::DropTailQueue& q) {
    ++q.stats_.enqueued;
  }
  static void forge_port_tx_count(net::QueuedPort& p) { ++p.packets_sent_; }
  static void force_idle_with_backlog(net::QueuedPort& p) {
    p.transmitting_ = false;
  }
  static void set_negative_deficit(net::DrrPort& d, net::FlowId flow) {
    d.flows_[*d.slots_.find(flow)].deficit = units::Bytes{-5};
  }
  /// Links a slot that no flow owns into the active ring.
  static void link_unknown_active_slot(net::DrrPort& d) {
    d.head_ = static_cast<std::uint32_t>(d.flows_.size());
  }
  static void forge_unroutable(net::Switch& sw) { ++sw.unroutable_; }
  static void forge_sacked_out(tcp::TcpSender& s) { ++s.sacked_out_; }
  static void forge_pipe(tcp::TcpSender& s) { s.pipe_ += 3; }
  static void forge_snd_nxt(tcp::TcpSender& s) { ++s.snd_nxt_; }
  static void insert_raw_range(tcp::TcpReceiver& r, std::int64_t start,
                               std::int64_t end) {
    r.out_of_order_.ranges_[start] = end;
  }
  static void insert_raw_range(tcp::SeqRangeSet& s, std::int64_t start,
                               std::int64_t end) {
    s.ranges_[start] = end;
  }
};

namespace {

using sim::SimTime;
using sim::Simulator;

bool fires(const std::vector<Violation>& violations,
           const std::string& invariant) {
  for (const auto& v : violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

std::string render(const std::vector<Violation>& violations) {
  std::string out;
  for (const auto& v : violations) out += v.to_string() + "\n";
  return out;
}

net::Packet data_packet(net::FlowId flow, std::int32_t size) {
  net::Packet pkt;
  pkt.flow = flow;
  pkt.size_bytes = units::Bytes{size};
  return pkt;
}

/// Minimal sender<->receiver loop (mirrors test_tcp.cc's Harness) so the
/// TCP invariants can be audited — and corrupted — on a real scoreboard.
struct Harness {
  Harness() {
    net::PortConfig port_config;
    port_config.propagation = SimTime::microseconds(5);
    cca::CcaConfig cca_config;
    tcp::TcpConfig tcp_config;
    cca_config.mss_bytes = tcp_config.mss_bytes();
    forward = std::make_unique<net::QueuedPort>(sim, "fwd", port_config,
                                                nullptr);
    reverse = std::make_unique<net::QueuedPort>(sim, "rev", port_config,
                                                nullptr);
    sender = std::make_unique<tcp::TcpSender>(
        sim, /*flow=*/1, /*src=*/1, /*dst=*/2, tcp_config,
        cca::make_cca("reno", cca_config), &core, forward.get());
    receiver = std::make_unique<tcp::TcpReceiver>(sim, 1, 2, tcp_config,
                                                  reverse.get());
    forward->set_next(receiver.get());
    reverse->set_next(sender.get());
  }

  void transfer(std::int64_t bytes, SimTime deadline = SimTime::seconds(5)) {
    sender->add_app_data(units::Bytes{bytes});
    sender->mark_app_eof();
    sender->start();
    sim.run_until(deadline);
  }

  Simulator sim;
  energy::CpuCore core;
  std::unique_ptr<net::QueuedPort> forward;
  std::unique_ptr<net::QueuedPort> reverse;
  std::unique_ptr<tcp::TcpSender> sender;
  std::unique_ptr<tcp::TcpReceiver> receiver;
};

/// CCA stub with directly settable outputs, for the sanity checks.
class FakeCc : public cca::CongestionControl {
 public:
  void on_ack(const cca::AckEvent&) override {}
  void on_loss(const cca::LossEvent&) override {}
  void on_rto(SimTime) override {}
  double cwnd_segments() const override { return cwnd; }
  units::BitRate pacing_rate() const override {
    return units::BitRate::bps(pacing);
  }
  energy::CcaCost cost() const override { return {}; }
  std::string name() const override { return "fake"; }

  double cwnd = 10.0;
  double pacing = 0.0;
};

// ---------------------------------------------------------------- healthy

TEST(Auditor, HealthyTransferAuditsClean) {
  ScopedFailureHandler guard(&throwing_failure_handler);
  Harness h;
  InvariantAuditor::Config config;
  config.cadence = SimTime::milliseconds(1);
  InvariantAuditor auditor(config);
  auditor.watch_simulator(&h.sim);
  auditor.watch_port(h.forward.get());
  auditor.watch_port(h.reverse.get());
  auditor.watch_flow(1, h.sender.get(), h.receiver.get());
  h.forward->set_ledger(&auditor.ledger());
  h.reverse->set_ledger(&auditor.ledger());
  auditor.set_complete_topology(true);

  auditor.arm(h.sim);
  EXPECT_NO_THROW(h.transfer(500'000, SimTime::seconds(2)));
  auditor.disarm();
  EXPECT_NO_THROW(auditor.check_now());
  EXPECT_TRUE(h.sender->complete());
  EXPECT_GT(auditor.audits_run(), 10u);
}

TEST(Auditor, ScenarioWiresAuditorEndToEnd) {
  ScopedFailureHandler guard(&throwing_failure_handler);
  app::ScenarioConfig config;
  config.audit_interval = SimTime::milliseconds(1);
  app::Scenario scenario(std::move(config));
  ASSERT_NE(scenario.auditor(), nullptr);
  app::FlowSpec flow;
  flow.bytes = units::Bytes{20'000'000};
  scenario.add_flow(flow);
  const auto result = scenario.run();
  EXPECT_TRUE(result.all_completed);
  EXPECT_GT(scenario.auditor()->audits_run(), 1u);
}

TEST(Auditor, ScenarioWithoutIntervalHasNoAuditor) {
  app::Scenario scenario(app::ScenarioConfig{});
  EXPECT_EQ(scenario.auditor(), nullptr);
}

// ------------------------------------------------------------- simulator

TEST(Auditor, FiresOnClockRegression) {
  InvariantAuditor auditor;
  std::vector<Violation> out;
  auditor.audit_simulator_state(SimTime::seconds(2), 0, 0, 0, out);
  auditor.audit_simulator_state(SimTime::seconds(1), 0, 0, 0, out);
  EXPECT_TRUE(fires(out, "sim.time_monotonic")) << render(out);
}

TEST(Auditor, FiresOnPeakBelowPending) {
  InvariantAuditor auditor;
  std::vector<Violation> out;
  auditor.audit_simulator_state(SimTime::zero(), /*pending=*/7,
                                /*peak_pending=*/3, /*events_executed=*/0,
                                out);
  EXPECT_TRUE(fires(out, "sim.heap_high_water")) << render(out);
}

TEST(Auditor, FiresOnExecutedCountRegression) {
  InvariantAuditor auditor;
  std::vector<Violation> out;
  auditor.audit_simulator_state(SimTime::zero(), 0, 0, 100, out);
  auditor.audit_simulator_state(SimTime::seconds(1), 0, 0, 99, out);
  EXPECT_TRUE(fires(out, "sim.events_monotonic")) << render(out);
}

// ----------------------------------------------------------------- queue

TEST(Auditor, FiresOnQueuePhantomBytes) {
  net::DropTailQueue queue(units::Bytes{100'000});
  ASSERT_TRUE(queue.enqueue(data_packet(1, 1'000)));
  ASSERT_TRUE(queue.enqueue(data_packet(1, 1'000)));
  AuditCorruptor::add_phantom_bytes(queue, 37);

  InvariantAuditor auditor;
  auditor.watch_queue("q", &queue);
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "queue.accounting")) << render(out);
}

TEST(Auditor, FiresOnQueueBookImbalance) {
  net::DropTailQueue queue(units::Bytes{100'000});
  ASSERT_TRUE(queue.enqueue(data_packet(1, 1'000)));
  AuditCorruptor::forge_enqueue_count(queue);  // enqueued++ with no packet

  InvariantAuditor auditor;
  auditor.watch_queue("q", &queue);
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "queue.accounting")) << render(out);
}

TEST(Auditor, HealthyQueueAuditsClean) {
  net::DropTailQueue queue(units::Bytes{100'000});
  ASSERT_TRUE(queue.enqueue(data_packet(1, 1'000)));
  (void)queue.dequeue();

  InvariantAuditor auditor;
  auditor.watch_queue("q", &queue);
  const auto out = auditor.run_once();
  EXPECT_TRUE(out.empty()) << render(out);
}

// ------------------------------------------------------------------ port

TEST(Auditor, FiresOnPortTransmitCountMismatch) {
  Simulator sim;
  net::QueuedPort port(sim, "p0", net::PortConfig{}, nullptr);
  AuditCorruptor::forge_port_tx_count(port);  // sent 1, dequeued 0

  InvariantAuditor auditor;
  auditor.watch_port(&port);
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "port.accounting")) << render(out);
}

TEST(Auditor, FiresOnPortIdleWithBacklog) {
  Simulator sim;
  net::QueuedPort port(sim, "p0", net::PortConfig{}, nullptr);
  port.handle(data_packet(1, 1'000));  // head is now serializing
  port.handle(data_packet(1, 1'000));  // second packet waits behind it
  ASSERT_FALSE(port.queue_stats().enqueued == 0);
  AuditCorruptor::force_idle_with_backlog(port);

  InvariantAuditor auditor;
  auditor.watch_port(&port);
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "port.accounting")) << render(out);
}

// ------------------------------------------------------------------- drr

TEST(Auditor, FiresOnNegativeDrrDeficit) {
  Simulator sim;
  net::DrrPort drr(sim, "drr0", net::DrrPort::Config{}, nullptr);
  drr.set_weight(1, 1.0);  // creates the flow's scheduler state
  AuditCorruptor::set_negative_deficit(drr, 1);

  InvariantAuditor auditor;
  auditor.watch_drr("drr0", &drr);
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "drr.scheduler")) << render(out);
}

TEST(Auditor, FiresOnUnknownFlowInDrrRound) {
  Simulator sim;
  net::DrrPort drr(sim, "drr0", net::DrrPort::Config{}, nullptr);
  AuditCorruptor::link_unknown_active_slot(drr);

  InvariantAuditor auditor;
  auditor.watch_drr("drr0", &drr);
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "drr.scheduler")) << render(out);
}

// ---------------------------------------------------------------- switch

TEST(Auditor, FiresOnUnroutablePackets) {
  Simulator sim;
  net::Switch sw(sim, "sw0");
  AuditCorruptor::forge_unroutable(sw);

  InvariantAuditor auditor;
  auditor.watch_switch("sw0", &sw);
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "switch.accounting")) << render(out);
}

// ------------------------------------------------------------------- tcp

TEST(Auditor, FiresOnForgedSackCount) {
  Harness h;
  h.transfer(200'000);
  ASSERT_TRUE(h.sender->complete());
  AuditCorruptor::forge_sacked_out(*h.sender);

  InvariantAuditor auditor;
  auditor.watch_flow(1, h.sender.get(), h.receiver.get());
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "tcp.scoreboard")) << render(out);
}

TEST(Auditor, FiresOnForgedPipe) {
  Harness h;
  h.transfer(200'000);
  AuditCorruptor::forge_pipe(*h.sender);

  InvariantAuditor auditor;
  auditor.watch_flow(1, h.sender.get(), h.receiver.get());
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "tcp.scoreboard")) << render(out);
}

TEST(Auditor, FiresOnSndNxtBeyondAppData) {
  Harness h;
  h.transfer(200'000);
  AuditCorruptor::forge_snd_nxt(*h.sender);  // claims an unsent segment sent

  InvariantAuditor auditor;
  auditor.watch_flow(1, h.sender.get(), h.receiver.get());
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "tcp.scoreboard")) << render(out);
}

TEST(Auditor, FiresOnMalformedReassemblyQueue) {
  Harness h;
  h.transfer(200'000);
  // An empty range [10, 10) can never be produced by insert(); only a
  // corrupted map holds one.
  AuditCorruptor::insert_raw_range(*h.receiver, h.receiver->rcv_nxt() + 10,
                                   h.receiver->rcv_nxt() + 10);

  InvariantAuditor auditor;
  auditor.watch_flow(1, h.sender.get(), h.receiver.get());
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "tcp.reassembly")) << render(out);
}

TEST(Auditor, FiresOnReassemblyRangeBelowRcvNxt) {
  Harness h;
  h.transfer(200'000);
  ASSERT_GT(h.receiver->rcv_nxt(), 2);
  AuditCorruptor::insert_raw_range(*h.receiver, 0, 2);  // already delivered

  InvariantAuditor auditor;
  auditor.watch_flow(1, h.sender.get(), h.receiver.get());
  const auto out = auditor.run_once();
  EXPECT_TRUE(fires(out, "tcp.reassembly")) << render(out);
}

TEST(Auditor, FiresOnCumulativeAckRegression) {
  InvariantAuditor auditor;
  std::vector<Violation> out;
  auditor.audit_flow_progress(1, /*snd_una=*/50, /*rcv_nxt=*/60, out);
  auditor.audit_flow_progress(1, /*snd_una=*/40, /*rcv_nxt=*/60, out);
  EXPECT_TRUE(fires(out, "tcp.cumack_monotonic")) << render(out);
}

TEST(Auditor, FiresOnRcvNxtRegression) {
  InvariantAuditor auditor;
  std::vector<Violation> out;
  auditor.audit_flow_progress(1, 50, 60, out);
  auditor.audit_flow_progress(1, 50, 59, out);
  EXPECT_TRUE(fires(out, "tcp.rcvnxt_monotonic")) << render(out);
}

TEST(Auditor, FiresOnAckAheadOfReceiver) {
  InvariantAuditor auditor;
  std::vector<Violation> out;
  auditor.audit_flow_progress(1, /*snd_una=*/61, /*rcv_nxt=*/60, out);
  EXPECT_TRUE(fires(out, "tcp.cumack_bound")) << render(out);
}

// ------------------------------------------------------------------- cca

TEST(Auditor, FiresOnNonFiniteCwnd) {
  InvariantAuditor auditor;
  FakeCc cc;
  cc.cwnd = std::numeric_limits<double>::quiet_NaN();
  std::vector<Violation> out;
  auditor.audit_cca(1, cc, out);
  EXPECT_TRUE(fires(out, "cca.cwnd_sane")) << render(out);
}

TEST(Auditor, FiresOnSubUnityCwnd) {
  InvariantAuditor auditor;
  FakeCc cc;
  cc.cwnd = 0.25;
  std::vector<Violation> out;
  auditor.audit_cca(1, cc, out);
  EXPECT_TRUE(fires(out, "cca.cwnd_sane")) << render(out);
}

TEST(Auditor, FiresOnNegativePacingRate) {
  InvariantAuditor auditor;
  FakeCc cc;
  cc.pacing = -1.0;
  std::vector<Violation> out;
  auditor.audit_cca(1, cc, out);
  EXPECT_TRUE(fires(out, "cca.pacing_sane")) << render(out);
}

TEST(Auditor, HealthyCcaAuditsClean) {
  InvariantAuditor auditor;
  FakeCc cc;
  std::vector<Violation> out;
  auditor.audit_cca(1, cc, out);
  EXPECT_TRUE(out.empty()) << render(out);
}

// ---------------------------------------------------------- conservation

TEST(Auditor, FiresOnNegativeDataInFlight) {
  InvariantAuditor auditor;
  std::vector<Violation> out;
  auditor.audit_flow_conservation(1, /*data_sent=*/10, /*data_injected=*/0,
                                  /*data_delivered=*/8, /*data_dropped=*/5,
                                  /*data_fault_dropped=*/0, /*acks_sent=*/0,
                                  /*acks_injected=*/0, /*acks_received=*/0,
                                  /*acks_dropped=*/0,
                                  /*acks_fault_dropped=*/0, out);
  EXPECT_TRUE(fires(out, "conservation.data")) << render(out);
}

TEST(Auditor, FiresOnNegativeAckInFlight) {
  InvariantAuditor auditor;
  std::vector<Violation> out;
  auditor.audit_flow_conservation(1, 0, 0, 0, 0, 0, /*acks_sent=*/3,
                                  /*acks_injected=*/0, /*acks_received=*/4,
                                  /*acks_dropped=*/0,
                                  /*acks_fault_dropped=*/0, out);
  EXPECT_TRUE(fires(out, "conservation.ack")) << render(out);
}

TEST(Auditor, LedgerSeparatesDataAndAckDrops) {
  PacketLedger ledger;
  net::Packet data = data_packet(7, 1'000);
  net::Packet ack = data_packet(7, 60);
  ack.is_ack = true;
  ledger.on_drop(data);
  ledger.on_drop(data);
  ledger.on_drop(ack);
  EXPECT_EQ(ledger.data_drops(7), 2);
  EXPECT_EQ(ledger.ack_drops(7), 1);
  EXPECT_EQ(ledger.data_drops(8), 0);
  EXPECT_EQ(ledger.ack_drops(8), 0);
}

// --------------------------------------------------- reporting & aborting

TEST(Auditor, CheckNowRaisesThroughFailureHandler) {
  ScopedFailureHandler guard(&throwing_failure_handler);
  net::DropTailQueue queue(units::Bytes{100'000});
  ASSERT_TRUE(queue.enqueue(data_packet(1, 1'000)));
  AuditCorruptor::add_phantom_bytes(queue, 1);

  InvariantAuditor auditor;
  auditor.watch_queue("bad_queue", &queue);
  try {
    auditor.check_now();
    FAIL() << "check_now did not raise";
  } catch (const CheckFailedError& e) {
    EXPECT_NE(e.info.message.find("bad_queue"), std::string::npos)
        << e.info.message;
    EXPECT_NE(e.info.message.find("queue.accounting"), std::string::npos)
        << e.info.message;
  }
}

TEST(Auditor, ViolationsEmitInvariantTraceEvents) {
  ScopedFailureHandler guard(&throwing_failure_handler);
  net::DropTailQueue queue(units::Bytes{100'000});
  ASSERT_TRUE(queue.enqueue(data_packet(1, 1'000)));
  AuditCorruptor::add_phantom_bytes(queue, 1);

  trace::VectorTraceSink sink;
  InvariantAuditor auditor;
  auditor.watch_queue("bad_queue", &queue);
  auditor.set_trace(&sink);
  EXPECT_THROW(auditor.check_now(), CheckFailedError);

  ASSERT_GE(sink.count(trace::EventClass::kInvariant), 1u);
  const trace::Event& event = sink.events().front();
  EXPECT_EQ(event.cls, trace::EventClass::kInvariant);
  EXPECT_EQ(event.src, "bad_queue");
  EXPECT_FALSE(event.detail.empty());
}

TEST(Auditor, ArmedAuditorCatchesMidRunCorruption) {
  ScopedFailureHandler guard(&throwing_failure_handler);
  Harness h;
  InvariantAuditor::Config config;
  config.cadence = SimTime::milliseconds(1);
  InvariantAuditor auditor(config);
  auditor.watch_flow(1, h.sender.get(), h.receiver.get());
  auditor.arm(h.sim);

  // Corrupt the scoreboard after ~0.5 ms of simulated transfer; the next
  // cadence tick must catch it and abort the run through the handler.
  h.sim.schedule(SimTime::microseconds(500),
                 [&h] { AuditCorruptor::forge_pipe(*h.sender); });
  h.sender->add_app_data(units::Bytes{5'000'000});
  h.sender->mark_app_eof();
  h.sender->start();
  EXPECT_THROW(h.sim.run_until(SimTime::seconds(5)), CheckFailedError);
  auditor.disarm();
}

}  // namespace
}  // namespace greencc::check
