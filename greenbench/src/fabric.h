#pragma once

// The fleet fabric behind the `fleet` and `incast` workloads: N production-
// mix flows spread round-robin over DRR rack uplinks (40G) into one shared
// 400G core port, ACKs converging on one shared 400G reverse port — the
// topology of bench/ext_fleet, rebuilt here from the library's public
// classes so the benchmark does not depend on bench/ sources.
//
// With a Tracer, the fabric wires decorators in front of every layer
// boundary it owns: the CCA of each sender, the ACK demux in front of the
// senders, the data demux in front of the receivers, every DrrPort and the
// two shared QueuedPorts. Decorators only time and forward, so traced and
// untraced runs must produce identical outputs; the caller checks that.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "sim/simulator.h"
#include "span.h"

namespace greenbench {

struct FabricConfig {
  std::int64_t flows = 80'000;
  std::int64_t racks = 64;
  std::int64_t max_flow_bytes = 256 * 1024;
  std::int64_t ramp_us = 20'000;  ///< flow starts spread evenly over this
  double horizon_sec = 60.0;
  std::int32_t mtu = 9000;
  std::string cca = "cubic";
  std::uint64_t seed = 1;
};

/// Simulated outputs (identical across queue kinds and decorators) plus the
/// host time spent building and running.
struct FabricOutcome {
  std::int64_t flows = 0;
  std::int64_t completed = 0;
  std::int64_t retransmissions = 0;
  std::int64_t timeouts = 0;
  std::int64_t drops = 0;
  std::int64_t delivered_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  double build_s = 0.0;
  double endpoints_s = 0.0;  ///< part of build_s spent on senders/receivers
  double run_s = 0.0;

  /// The simulated statistics as one line; its hash is the output check.
  std::string digest() const;
};

class Fabric {
 public:
  /// Builds the whole fabric and schedules every flow start (timed into
  /// build_s). A non-null tracer wires the decorators.
  Fabric(const FabricConfig& config, greencc::sim::EventQueueKind queue,
         Tracer* tracer);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Runs to the horizon and collects the outcome.
  FabricOutcome run();

  greencc::sim::Simulator& simulator();
  double build_seconds() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Builds `config` with the decorators, runs it, and adds the per-call
/// layer metrics measured in place (cca, tcp, net) to `out`.
FabricOutcome traced_fabric(const FabricConfig& config,
                            greencc::sim::EventQueueKind kind, Tracer& tracer,
                            Metrics& out);

}  // namespace greenbench
