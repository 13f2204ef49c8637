#pragma once

// Layer probes: per-call host cost of one layer's public functions on a
// fixed, seeded input, independent of the workload being run. Each probe
// is one span in the trace and reports medians over several timed passes.

#include <cstdint>

#include "report.h"
#include "span.h"

namespace greenbench {

/// sim: hold model at 1k..1M pending and the incast start-schedule replay,
/// calendar and heap in the same run; Timer re-arm cost.
void probe_sim(Tracer& tracer, std::uint64_t seed, Metrics& out);
/// cca: on_ack cost of each of the paper's ten algorithms.
void probe_cca(Tracer& tracer, Metrics& out);
/// net: DropTailQueue enqueue+dequeue at a fixed occupancy under RED/CoDel.
void probe_aqm(Tracer& tracer, Metrics& out);
/// energy: CpuCore::charge and HostEnergyMeter::on_packet_sent.
void probe_energy(Tracer& tracer, Metrics& out);
/// fault: ImpairedLink::handle with loss and reorder on, into a null sink.
void probe_fault(Tracer& tracer, std::uint64_t seed, Metrics& out);
/// trace: an untraced scenario against one whose sink filters everything.
void probe_trace_off(Tracer& tracer, Metrics& out);

}  // namespace greenbench
