// `fleet` and `incast`: the fleet fabric at two start schedules, each run
// under robust::SweepSupervisor as one supervised cell like bench/ext_fleet.

#include <cstdio>
#include <string>
#include <vector>

#include "dsl_setup.h"
#include "fabric.h"
#include "robust/supervisor.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace greenbench {

using namespace greencc;

namespace {

constexpr int kSetupReps = 4;

FabricConfig fabric_config(const std::string& workload, std::uint64_t seed) {
  FabricConfig config;
  config.seed = seed;
  if (workload == "incast") {
    // A partition-aggregate burst at fleet width: every start within 1 ms.
    config.flows = 30'000;
    config.ramp_us = 1'000;
  }
  return config;
}

const char* kind_name(sim::EventQueueKind kind) {
  return kind == sim::EventQueueKind::kCalendar ? "calendar" : "heap";
}

sim::EventQueueKind other_kind(sim::EventQueueKind kind) {
  return kind == sim::EventQueueKind::kCalendar
             ? sim::EventQueueKind::kBinaryHeap
             : sim::EventQueueKind::kCalendar;
}

std::string config_json(const FabricConfig& c, sim::EventQueueKind kind) {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"topology\":\"%lld DRR rack uplinks at 40G into one 400G core "
      "port, ACKs on one shared 400G port\",\"flows\":%lld,"
      "\"max_flow_bytes\":%lld,\"ramp_us\":%lld,\"horizon_sec\":%g,"
      "\"mtu\":%d,\"cca\":\"%s\",\"sizes\":\"websearch/datamining "
      "alternating, capped, whole segments\",\"seed\":%llu,"
      "\"queue\":\"%s\",\"cross_check_queue\":\"%s\"}",
      static_cast<long long>(c.racks), static_cast<long long>(c.flows),
      static_cast<long long>(c.max_flow_bytes),
      static_cast<long long>(c.ramp_us), c.horizon_sec, c.mtu, c.cca.c_str(),
      static_cast<unsigned long long>(c.seed), kind_name(kind),
      kind_name(other_kind(kind)));
  return buf;
}

struct SupervisedPass {
  FabricOutcome outcome;
  double cell_s = 0.0;   ///< the supervisor's wall time for the cell
  double body_s = 0.0;   ///< build + run + teardown inside the cell
  double sweep_s = 0.0;  ///< SweepSupervisor::run wall time
  bool ok = false;
};

SupervisedPass supervised_pass(const FabricConfig& config,
                               sim::EventQueueKind kind) {
  SupervisedPass pass;
  robust::SupervisorOptions options;
  options.jobs = 1;
  robust::CellHooks hooks;
  hooks.run = [&](std::size_t, robust::CellContext& ctx) -> std::string {
    const std::int64_t t0 = now_ns();
    {
      Fabric fabric(config, kind, nullptr);
      auto watch = ctx.watch(fabric.simulator());
      pass.outcome = fabric.run();
    }
    pass.body_s = static_cast<double>(now_ns() - t0) * 1e-9;
    return "done";
  };
  robust::SweepSupervisor supervisor(std::move(options));
  const std::int64_t t0 = now_ns();
  const robust::SweepReport report = supervisor.run(1, hooks);
  pass.sweep_s = static_cast<double>(now_ns() - t0) * 1e-9;
  pass.cell_s = report.cells.at(0).wall_sec;
  pass.ok = report.complete();
  return pass;
}

}  // namespace

FabricOutcome traced_fabric(const FabricConfig& config,
                            sim::EventQueueKind kind, Tracer& tracer,
                            Metrics& out) {
  Fabric fabric(config, kind, &tracer);
  const FabricOutcome outcome = fabric.run();
  const auto per_call = [&tracer](const char* name) {
    const Tracer::Totals& t = tracer.totals(name);
    return t.calls == 0 ? 0.0
                        : static_cast<double>(t.self_ns) /
                              static_cast<double>(t.calls);
  };
  out.add("cca.on_ack_self_ns", per_call("cca.on_ack"), "ns");
  out.add("cca.on_ack_calls",
          static_cast<double>(tracer.totals("cca.on_ack").calls), "count");
  out.add("tcp.sender.ack_self_ns", per_call("tcp.sender.ack"), "ns");
  out.add("tcp.receiver.data_ns", per_call("tcp.receiver.data"), "ns");
  out.add("net.drr.enqueue_ns", per_call("net.drr.enqueue"), "ns");
  out.add("net.port.core_ns", per_call("net.port.core"), "ns");
  out.add("tcp.setup_us_per_flow",
          outcome.endpoints_s * 1e6 / static_cast<double>(outcome.flows),
          "us");
  return outcome;
}

WorkloadOutcome run_fabric_workload(const RunArgs& args) {
  const FabricConfig config = fabric_config(args.workload, args.seed);
  const sim::EventQueueKind kind = sim::Simulator::default_queue_kind();
  WorkloadOutcome result;
  result.config_json = config_json(config, kind);

  // Set-up samples: fabrics built and dropped unrun, plus each pass's own
  // build. Only the first build of the process pays for fresh pages, so the
  // median is the warm cost.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Fabric fabric(config, kind, nullptr);
    setup_s.push_back(fabric.build_seconds());
  }

  // Measured passes: at least one, more while another fits in the budget.
  std::vector<SupervisedPass> passes;
  const std::int64_t start = now_ns();
  for (std::int64_t pass_start = start;;) {
    passes.push_back(supervised_pass(config, kind));
    setup_s.push_back(passes.back().outcome.build_s);
    const std::int64_t now = now_ns();
    const double last = static_cast<double>(now - pass_start) * 1e-9;
    const double elapsed = static_cast<double>(now - start) * 1e-9;
    if (args.trace || elapsed + last > args.seconds) break;
    pass_start = now;
  }
  const FabricOutcome& first = passes.front().outcome;
  result.output_hash = hash_hex(first.digest());
  for (std::size_t i = 1; i < passes.size(); ++i) {
    result.checks.push_back({"pass" + std::to_string(i), result.output_hash,
                             hash_hex(passes[i].outcome.digest())});
  }
  result.attempted = first.flows;
  result.failed = passes.front().ok ? first.flows - first.completed
                                    : first.flows;
  result.passes = passes.size();
  result.setup_samples = setup_s.size();

  std::vector<double> run_s;
  std::vector<double> cell_s;
  for (const SupervisedPass& p : passes) {
    run_s.push_back(p.outcome.run_s);
    cell_s.push_back(p.cell_s);
  }
  result.cell_samples = 1;  // one supervised cell, median over the passes
  cell_s = {median(cell_s)};
  result.pass_run_s = run_s;
  const double run = median(run_s);
  Metrics& m = result.metrics;

  // The same simulation on the other event queue must be identical.
  {
    Fabric fabric(config, other_kind(kind), nullptr);
    result.checks.push_back({kind_name(other_kind(kind)), result.output_hash,
                             hash_hex(fabric.run().digest())});
  }

  if (!args.trace) {
    const double rss = peak_rss_mb();
    m.add("setup_s", median(setup_s), "s");
    m.add("run_s", run, "s");
    m.add("events_per_s", static_cast<double>(first.events) / run, "1/s");
    m.add("sim_mb_per_s", static_cast<double>(first.delivered_bytes) / 1e6 / run,
          "MB/s");
    m.add("cell_p50_s", hd_quantile(cell_s, 0.50), "s");
    m.add("cell_p75_s", hd_quantile(cell_s, 0.75), "s");
    m.add("peak_rss_mb", rss, "MB");
    m.add("rss_kb_per_flow", rss * 1024.0 / static_cast<double>(first.flows),
          "KB");
    m.add("completed_ratio",
          1.0 - static_cast<double>(result.failed) /
                    static_cast<double>(result.attempted),
          "ratio");
    return result;
  }

  // Traced run: the decorated fabric, then the layer probes.
  Tracer tracer;
  tracer.set_trace(trace_id(args.workload, 0));
  const FabricOutcome traced = traced_fabric(config, kind, tracer, m);
  result.checks.push_back(
      {"traced", result.output_hash, hash_hex(traced.digest())});
  m.add("sim.events", static_cast<double>(first.events), "count");
  m.add("sim.peak_pending", static_cast<double>(first.peak_pending), "count");
  m.add("tcp.retransmissions", static_cast<double>(first.retransmissions),
        "count");
  m.add("tcp.timeouts", static_cast<double>(first.timeouts), "count");
  m.add("net.drops", static_cast<double>(first.drops), "count");
  m.add("robust.sweep_overhead_s",
        passes.front().sweep_s - passes.front().body_s, "s");
  m.add("tracing.overhead_s", traced.run_s - first.run_s, "s");

  // No DSL input in this workload: the set-up layers are measured on the
  // paper grid's file.
  tracer.set_trace(trace_id(args.workload, 1));
  std::vector<DslSetupTimes> dsl;
  std::vector<DslFile> files;
  for (int rep = 0; rep < 5; ++rep) {
    dsl.push_back(dsl_setup_pass(paper_grid_spec(args.seed), &tracer,
                                 trace_id(args.workload, 1), files));
  }
  add_dsl_setup_metrics(dsl, m);
  finish_traced_run(args, tracer, result);
  return result;
}

}  // namespace greenbench
