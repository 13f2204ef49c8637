#include "fabric.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "app/workload.h"
#include "cca/cca.h"
#include "energy/cpu.h"
#include "net/drr.h"
#include "net/packet.h"
#include "net/port.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"

namespace greenbench {

using namespace greencc;

namespace {

/// Routes packets to the per-flow endpoint; flow ids are dense [0, n).
class Demux : public net::PacketHandler {
 public:
  explicit Demux(std::size_t n) : sinks_(n, nullptr) {}
  void set(std::size_t flow, net::PacketHandler* sink) { sinks_[flow] = sink; }
  void handle(net::Packet pkt) override {
    sinks_[static_cast<std::size_t>(pkt.flow)]->handle(pkt);
  }

 private:
  std::vector<net::PacketHandler*> sinks_;
};

/// Decorator in front of a PacketHandler: one span per handle() call.
class Tap : public net::PacketHandler {
 public:
  Tap(Tracer* tracer, std::uint32_t name, net::PacketHandler* inner)
      : tracer_(tracer), name_(name), inner_(inner) {}
  void handle(net::Packet pkt) override {
    Scope span(tracer_, name_);
    inner_->handle(pkt);
  }

 private:
  Tracer* tracer_;
  std::uint32_t name_;
  net::PacketHandler* inner_;
};

/// Decorator around the result of cca::make_cca: on_ack is timed, every
/// other hook forwards unchanged.
class CcaTap : public cca::CongestionControl {
 public:
  CcaTap(Tracer* tracer, std::uint32_t name,
         std::unique_ptr<cca::CongestionControl> inner)
      : tracer_(tracer), name_(name), inner_(std::move(inner)) {}
  void on_ack(const cca::AckEvent& ev) override {
    Scope span(tracer_, name_);
    inner_->on_ack(ev);
  }
  void on_loss(const cca::LossEvent& ev) override { inner_->on_loss(ev); }
  void on_rto(sim::SimTime now) override { inner_->on_rto(now); }
  void on_recovered(sim::SimTime now) override { inner_->on_recovered(now); }
  double cwnd_segments() const override { return inner_->cwnd_segments(); }
  units::BitRate pacing_rate() const override { return inner_->pacing_rate(); }
  energy::CcaCost cost() const override { return inner_->cost(); }
  bool wants_ecn() const override { return inner_->wants_ecn(); }
  bool wants_int() const override { return inner_->wants_int(); }
  std::string name() const override { return inner_->name(); }

 private:
  Tracer* tracer_;
  std::uint32_t name_;
  std::unique_ptr<cca::CongestionControl> inner_;
};

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace

std::string FabricOutcome::digest() const {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "flows=%" PRId64 " completed=%" PRId64 " events=%" PRIu64
                " peak_pending=%" PRIu64 " retransmissions=%" PRId64
                " timeouts=%" PRId64 " drops=%" PRId64 " delivered=%" PRId64,
                flows, completed, events, peak_pending, retransmissions,
                timeouts, drops, delivered_bytes);
  return buf;
}

struct Fabric::Impl {
  Impl(const FabricConfig& config, sim::EventQueueKind queue)
      : sim(queue),
        n(static_cast<std::size_t>(config.flows)),
        rx_demux(n),
        tx_demux(n) {}

  sim::Simulator sim;
  std::size_t n;
  std::int64_t mss = 0;
  Demux rx_demux;
  Demux tx_demux;
  std::vector<std::unique_ptr<Tap>> taps;
  std::unique_ptr<net::QueuedPort> core;
  std::unique_ptr<net::QueuedPort> ack_port;
  std::vector<std::unique_ptr<net::DrrPort>> uplinks;
  std::vector<energy::CpuCore> cores;
  std::vector<std::unique_ptr<tcp::TcpSender>> senders;
  std::vector<std::unique_ptr<tcp::TcpReceiver>> receivers;
  std::int64_t completed = 0;
  double build_s = 0.0;
  double endpoints_s = 0.0;
  double horizon_sec = 60.0;

  net::PacketHandler* tap(Tracer* tracer, const char* name,
                          net::PacketHandler* inner) {
    if (tracer == nullptr) return inner;
    taps.push_back(std::make_unique<Tap>(tracer, tracer->name_id(name), inner));
    return taps.back().get();
  }
};

Fabric::Fabric(const FabricConfig& config, sim::EventQueueKind queue,
               Tracer* tracer) {
  const std::int64_t t0 = now_ns();
  impl_ = std::make_unique<Impl>(config, queue);
  Impl& f = *impl_;
  f.horizon_sec = config.horizon_sec;
  const std::size_t n = f.n;
  const auto racks = static_cast<std::size_t>(
      std::max<std::int64_t>(1, std::min(config.racks, config.flows)));

  tcp::TcpConfig tcp_config;
  tcp_config.mtu_bytes = units::Bytes{config.mtu};
  cca::CcaConfig cca_config;
  cca_config.mss_bytes = tcp_config.mss_bytes();
  f.mss = tcp_config.mss_bytes().count();

  net::PortConfig shared;
  shared.rate = units::BitRate::bps(400e9);
  shared.queue_capacity_bytes = units::Bytes{8 << 20};
  f.core = std::make_unique<net::QueuedPort>(
      f.sim, "core", shared,
      f.tap(tracer, "tcp.receiver.data", &f.rx_demux));
  f.ack_port = std::make_unique<net::QueuedPort>(
      f.sim, "ack", shared, f.tap(tracer, "tcp.sender.ack", &f.tx_demux));
  net::PacketHandler* core_in = f.tap(tracer, "net.port.core", f.core.get());
  net::PacketHandler* ack_in =
      f.tap(tracer, "net.port.core", f.ack_port.get());

  net::DrrPort::Config rack_config;
  rack_config.rate = units::BitRate::bps(40e9);
  rack_config.per_flow_queue_bytes = units::Bytes{1 << 16};
  std::vector<net::PacketHandler*> rack_in(racks);
  f.uplinks.reserve(racks);
  for (std::size_t r = 0; r < racks; ++r) {
    f.uplinks.push_back(std::make_unique<net::DrrPort>(
        f.sim, "rack" + std::to_string(r), rack_config, core_in));
    rack_in[r] = f.tap(tracer, "net.drr.enqueue", f.uplinks.back().get());
  }

  const std::int64_t t_endpoints = now_ns();
  f.cores.resize(n);
  f.senders.resize(n);
  f.receivers.resize(n);
  const auto websearch = app::websearch_workload();
  const auto datamining = app::datamining_workload();
  sim::Rng size_rng(config.seed);
  const std::uint32_t on_ack =
      tracer != nullptr ? tracer->name_id("cca.on_ack") : 0;
  const std::int64_t ramp_ns = config.ramp_us * 1000;
  for (std::size_t i = 0; i < n; ++i) {
    const app::FlowSizeDistribution& dist =
        (i % 2 == 0) ? *websearch : *datamining;
    std::int64_t bytes =
        std::clamp(dist.sample(size_rng), f.mss, config.max_flow_bytes);
    bytes = (bytes + f.mss - 1) / f.mss * f.mss;

    std::unique_ptr<cca::CongestionControl> cc =
        cca::make_cca(config.cca, cca_config);
    if (tracer != nullptr) {
      cc = std::make_unique<CcaTap>(tracer, on_ack, std::move(cc));
    }
    f.senders[i] = std::make_unique<tcp::TcpSender>(
        f.sim, static_cast<net::FlowId>(i), static_cast<net::HostId>(i),
        static_cast<net::HostId>(i + n), tcp_config, std::move(cc),
        &f.cores[i], rack_in[i % racks]);
    f.receivers[i] = std::make_unique<tcp::TcpReceiver>(
        f.sim, static_cast<net::FlowId>(i), static_cast<net::HostId>(i + n),
        tcp_config, ack_in);
    f.rx_demux.set(i, f.receivers[i].get());
    f.tx_demux.set(i, f.senders[i].get());

    tcp::TcpSender* sender = f.senders[i].get();
    sender->add_app_data(units::Bytes{bytes});
    sender->mark_app_eof();
    std::int64_t* completed = &f.completed;
    sender->set_on_complete([completed] { ++*completed; });
    const auto start = greencc::sim::SimTime::nanoseconds(
        n > 1 ? ramp_ns * static_cast<std::int64_t>(i) /
                    static_cast<std::int64_t>(n - 1)
              : 0);
    f.sim.schedule_at(start, [sender] { sender->start(); });
  }
  const std::int64_t t1 = now_ns();
  f.endpoints_s = seconds_between(t_endpoints, t1);
  f.build_s = seconds_between(t0, t1);
}

Fabric::~Fabric() = default;

sim::Simulator& Fabric::simulator() { return impl_->sim; }
double Fabric::build_seconds() const { return impl_->build_s; }

FabricOutcome Fabric::run() {
  Impl& f = *impl_;
  FabricOutcome out;
  const std::int64_t t0 = now_ns();
  f.sim.run_until(sim::SimTime::seconds(f.horizon_sec));
  out.run_s = seconds_between(t0, now_ns());
  out.build_s = f.build_s;
  out.endpoints_s = f.endpoints_s;
  out.flows = static_cast<std::int64_t>(f.n);
  out.completed = f.completed;
  out.events = f.sim.events_executed();
  out.peak_pending = f.sim.peak_pending_events();
  for (const auto& s : f.senders) {
    out.retransmissions += s->stats().retransmissions;
    out.timeouts += s->stats().timeouts;
    out.delivered_bytes += s->stats().delivered_segments * f.mss;
  }
  for (const auto& u : f.uplinks) {
    out.drops += static_cast<std::int64_t>(u->dropped());
  }
  out.drops += static_cast<std::int64_t>(f.core->queue_stats().dropped +
                                         f.ack_port->queue_stats().dropped);
  return out;
}

}  // namespace greenbench
