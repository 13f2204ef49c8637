#include "probes.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/scenario.h"
#include "cca/cca.h"
#include "energy/cpu.h"
#include "energy/meter.h"
#include "energy/power_model.h"
#include "fault/impairment.h"
#include "net/queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace greenbench {

using namespace greencc;

namespace {

/// Keeps the optimizer from folding a probed loop away.
template <typename T>
inline void keep(T* p) {
  asm volatile("" : : "g"(p) : "memory");
}

constexpr int kPasses = 5;

/// Median ns per operation over kPasses runs of `pass`, which performs
/// `ops` operations.
double median_ns_per_op(std::size_t ops, const std::function<void()>& pass) {
  std::vector<double> ns;
  for (int i = 0; i < kPasses; ++i) {
    const std::int64_t t0 = now_ns();
    pass();
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(ops));
  }
  return median(ns);
}

std::unique_ptr<sim::EventQueue> make_queue(sim::EventQueueKind kind) {
  if (kind == sim::EventQueueKind::kBinaryHeap) {
    return std::make_unique<sim::BinaryHeapQueue>();
  }
  return std::make_unique<sim::CalendarQueue>();
}

// --- sim -------------------------------------------------------------------

/// Classical hold model: `pending` events within a 2 us window; each step
/// pops the minimum and pushes a replacement 1..2000 ns later.
struct Hold {
  std::unique_ptr<sim::EventQueue> q;
  sim::Rng rng;
  std::uint64_t seq = 0;

  Hold(sim::EventQueueKind kind, std::size_t pending, std::uint64_t seed)
      : q(make_queue(kind)), rng(seed) {
    for (std::size_t i = 0; i < pending; ++i) {
      sim::EventQueue::Event ev;
      ev.when = sim::SimTime::nanoseconds(
          1 + static_cast<std::int64_t>(rng.next_below(2000)));
      ev.seq = seq++;
      ev.cb = [] {};
      q->push(std::move(ev));
    }
  }
  void steps(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      sim::EventQueue::Event ev = q->pop_move();
      ev.when = ev.when + sim::SimTime::nanoseconds(
                              1 + static_cast<std::int64_t>(
                                      rng.next_below(2000)));
      ev.seq = seq++;
      q->push(std::move(ev));
    }
  }
};

/// The incast start schedule replayed: 30k flow starts spread evenly over
/// 1 ms. Each start, when popped, pushes what a starting flow schedules:
/// an initial window of 10 segment departures 1.8 us apart (9 KB at 40G,
/// a few ns of jitter) and one retransmission timer ~200 ms out. Pops until
/// the queue is empty. Returns pushes + pops.
std::size_t burst_replay(sim::EventQueue& q, std::uint64_t seed) {
  constexpr std::int64_t kFlows = 30'000;
  constexpr std::int64_t kRampNs = 1'000'000;
  sim::Rng rng(seed);
  std::uint64_t seq = 0;
  std::size_t ops = 0;
  const auto push = [&](sim::SimTime when) {
    sim::EventQueue::Event ev;
    ev.when = when;
    ev.seq = seq++;
    ev.cb = [] {};
    q.push(std::move(ev));
    ++ops;
  };
  for (std::int64_t i = 0; i < kFlows; ++i) {
    push(sim::SimTime::nanoseconds(kRampNs * i / (kFlows - 1)));
  }
  while (!q.empty()) {
    const sim::EventQueue::Event ev = q.pop_move();
    ++ops;
    if (ev.seq >= static_cast<std::uint64_t>(kFlows)) continue;  // not a start
    for (std::int64_t seg = 1; seg <= 10; ++seg) {
      push(ev.when + sim::SimTime::nanoseconds(
                         1'800 * seg +
                         static_cast<std::int64_t>(rng.next_below(4))));
    }
    push(ev.when + sim::SimTime::nanoseconds(
                       200'000'000 +
                       static_cast<std::int64_t>(rng.next_below(1'000'000))));
  }
  return ops;
}

}  // namespace

void probe_sim(Tracer& tracer, std::uint64_t seed, Metrics& out) {
  Scope span(&tracer, tracer.name_id("probe.sim"));
  struct Level {
    const char* label;
    std::size_t pending;
  };
  const Level levels[] = {
      {"1k", 1'000}, {"10k", 10'000}, {"100k", 100'000}, {"1m", 1'000'000}};
  constexpr std::size_t kOps = 400'000;
  for (const Level& level : levels) {
    // Calendar and heap built side by side and timed in alternating
    // passes, so drift in host speed taxes both alike.
    Hold calendar(sim::EventQueueKind::kCalendar, level.pending, seed);
    Hold heap(sim::EventQueueKind::kBinaryHeap, level.pending, seed);
    const std::size_t warm = std::max<std::size_t>(level.pending, kOps);
    calendar.steps(warm);
    heap.steps(warm);
    std::vector<double> c_ns;
    std::vector<double> h_ns;
    for (int pass = 0; pass < 3; ++pass) {
      std::int64_t t0 = now_ns();
      calendar.steps(kOps);
      c_ns.push_back(static_cast<double>(now_ns() - t0) / kOps);
      t0 = now_ns();
      heap.steps(kOps);
      h_ns.push_back(static_cast<double>(now_ns() - t0) / kOps);
    }
    out.add(std::string("sim.hold_ns.calendar.") + level.label, median(c_ns),
            "ns");
    out.add(std::string("sim.hold_ns.heap.") + level.label, median(h_ns),
            "ns");
  }

  for (const auto kind :
       {sim::EventQueueKind::kCalendar, sim::EventQueueKind::kBinaryHeap}) {
    std::vector<double> ns;
    for (int pass = 0; pass < 3; ++pass) {
      auto q = make_queue(kind);
      const std::int64_t t0 = now_ns();
      const std::size_t ops = burst_replay(*q, seed);
      ns.push_back(static_cast<double>(now_ns() - t0) /
                   static_cast<double>(ops));
    }
    out.add(kind == sim::EventQueueKind::kCalendar ? "sim.burst_ns.calendar"
                                                   : "sim.burst_ns.heap",
            median(ns), "ns");
  }

  // Timer: deadlines mostly pushed out (the per-ACK RTO re-arm), every
  // 16th pulled in (cancel + reschedule).
  constexpr std::size_t kArms = 1'000'000;
  const double rearm = median_ns_per_op(kArms, [] {
    sim::Simulator sim;
    std::int64_t fired = 0;
    sim::Timer timer(sim, [&fired] { ++fired; });
    for (std::size_t i = 0; i < kArms; ++i) {
      const std::int64_t delay =
          i % 16 == 15 ? 50'000 : 100'000 + static_cast<std::int64_t>(i);
      timer.arm(sim::SimTime::nanoseconds(delay));
    }
    sim.run();
    keep(&fired);
  });
  out.add("sim.timer_rearm_ns", rearm, "ns");
}

// --- cca -------------------------------------------------------------------

void probe_cca(Tracer& tracer, Metrics& out) {
  Scope span(&tracer, tracer.name_id("probe.cca"));
  constexpr std::size_t kAcks = 200'000;
  for (const std::string& name : cca::all_names()) {
    const double ns = median_ns_per_op(kAcks, [&name] {
      cca::CcaConfig config;
      config.mss_bytes = units::Bytes{1448};
      auto cc = cca::make_cca(name, config);
      cca::AckEvent ev;
      ev.rtt = sim::SimTime::microseconds(100);
      ev.srtt = sim::SimTime::microseconds(100);
      ev.min_rtt = sim::SimTime::microseconds(100);
      ev.acked_segments = 2;
      ev.inflight = 50;
      ev.delivery_rate = units::BitRate::bps(5e9);
      std::int64_t t = 0;
      for (std::size_t i = 0; i < kAcks; ++i) {
        ev.now = sim::SimTime::nanoseconds(t += 20'000);
        ev.delivered += 2;
        cc->on_ack(ev);
        double cwnd = cc->cwnd_segments();
        keep(&cwnd);
      }
    });
    out.add("cca.on_ack_ns." + name, ns, "ns");
  }
}

// --- net (AQM) -------------------------------------------------------------

void probe_aqm(Tracer& tracer, Metrics& out) {
  Scope span(&tracer, tracer.name_id("probe.aqm"));
  constexpr std::size_t kOps = 400'000;
  constexpr std::int64_t kOccupancy = 120'000;  // between RED's thresholds
  for (const auto mode : {net::AqmMode::kRed, net::AqmMode::kCodel}) {
    const double ns = median_ns_per_op(kOps, [mode] {
      net::AqmConfig aqm;
      aqm.mode = mode;
      net::DropTailQueue q(units::Bytes{1 << 20}, aqm);
      net::Packet pkt;
      pkt.size_bytes = units::Bytes{1500};
      std::int64_t now = 0;
      for (std::size_t i = 0; i < kOps; ++i) {
        now += 1'200;  // one 1500 B frame time at 10 Gb/s
        const auto t = sim::SimTime::nanoseconds(now);
        pkt.seq = static_cast<std::int64_t>(i);
        q.enqueue(pkt, t);
        while (q.bytes().count() > kOccupancy) q.dequeue(t);
      }
      keep(&q);
    });
    out.add(mode == net::AqmMode::kRed ? "net.aqm.red_ns" : "net.aqm.codel_ns",
            ns, "ns");
  }
}

// --- energy ----------------------------------------------------------------

void probe_energy(Tracer& tracer, Metrics& out) {
  Scope span(&tracer, tracer.name_id("probe.energy"));
  constexpr std::size_t kOps = 2'000'000;
  const double charge = median_ns_per_op(kOps, [] {
    energy::CpuCore core;
    for (std::size_t i = 0; i < kOps; ++i) {
      core.charge(sim::SimTime::nanoseconds(static_cast<std::int64_t>(i) * 900),
                  700.0);
    }
    double busy = core.busy_ns_until(
        sim::SimTime::nanoseconds(static_cast<std::int64_t>(kOps) * 900));
    keep(&busy);
  });
  out.add("energy.cpu_charge_ns", charge, "ns");

  const double meter = median_ns_per_op(kOps, [] {
    sim::Simulator sim;
    energy::HostEnergyMeter m(sim, energy::PackagePowerModel{});
    for (std::size_t i = 0; i < kOps; ++i) {
      m.on_packet_sent(units::Bytes{1500 + static_cast<std::int64_t>(i & 7)});
      keep(&m);
    }
  });
  out.add("energy.meter_packet_ns", meter, "ns");
}

// --- fault -----------------------------------------------------------------

namespace {
class NullSink : public net::PacketHandler {
 public:
  void handle(net::Packet pkt) override { seen_ += pkt.seq; }
  std::int64_t seen_ = 0;
};
}  // namespace

void probe_fault(Tracer& tracer, std::uint64_t seed, Metrics& out) {
  Scope span(&tracer, tracer.name_id("probe.fault"));
  constexpr std::size_t kOps = 500'000;
  std::vector<double> ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    sim::Simulator sim;
    NullSink sink;
    fault::ImpairmentConfig config;
    config.loss_rate = 0.01;
    config.reorder_rate = 0.01;
    config.seed = seed;
    fault::ImpairedLink link(sim, "probe", config, &sink);
    net::Packet pkt;
    pkt.size_bytes = units::Bytes{1500};
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kOps; ++i) {
      pkt.seq = static_cast<std::int64_t>(i);
      link.handle(pkt);
    }
    ns.push_back(static_cast<double>(now_ns() - t0) / kOps);
    sim.run();  // release the reordered packets (untimed)
    keep(&sink);
  }
  out.add("fault.impaired_ns", median(ns), "ns");
}

// --- trace -----------------------------------------------------------------

void probe_trace_off(Tracer& tracer, Metrics& out) {
  Scope span(&tracer, tracer.name_id("probe.trace"));
  // A transfer big enough to overflow the bottleneck (drops, retransmits:
  // the traced code paths), as in bench/ablation_trace_overhead.
  const auto run_once = [](bool filtered) {
    app::ScenarioConfig config;
    config.tcp.mtu_bytes = units::Bytes{9000};
    app::Scenario scenario(config);
    app::FlowSpec flow;
    flow.bytes = units::Bytes{25'000'000};
    scenario.add_flow(flow);
    trace::VectorTraceSink sink(0);  // wants() nothing
    if (filtered) scenario.set_trace_sink(&sink);
    const std::int64_t t0 = now_ns();
    const app::ScenarioResult r = scenario.run();
    const std::int64_t t1 = now_ns();
    double joules = r.total_energy.joules();
    keep(&joules);
    return static_cast<double>(t1 - t0);
  };
  std::vector<double> off;
  std::vector<double> filtered;
  run_once(false);  // warm-up
  for (int pass = 0; pass < 7; ++pass) {
    off.push_back(run_once(false));
    filtered.push_back(run_once(true));
  }
  out.add("trace.off_overhead_pct",
          (median(filtered) / median(off) - 1.0) * 100.0, "%");
}

}  // namespace greenbench
