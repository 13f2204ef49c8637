// `paper_grid` and `pack_sample`: scenario files run through
// dsl::run_sweep, serially (jobs = 1), with the run seed as base seed.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "app/parallel_runner.h"
#include "app/scenario.h"
#include "dsl_setup.h"
#include "fabric.h"
#include "robust/journal.h"
#include "robust/supervisor.h"
#include "scenario_dsl/compile.h"
#include "scenario_dsl/doc.h"
#include "scenario_dsl/runner.h"
#include "scenario_dsl/sweep.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace greenbench {

using namespace greencc;

namespace {

constexpr int kSetupRepsPerPass = 9;

// Slots of run_sweep's journaled metric vector (scenario_dsl/runner.cc).
constexpr std::size_t kGoodputGbpsSlot = 4;
constexpr std::size_t kDeliveredBytesSlot = 5;

std::vector<double> parse_payload(const std::string& payload) {
  std::vector<double> values;
  std::istringstream in(payload);
  std::string token;
  while (in >> token) values.push_back(std::strtod(token.c_str(), nullptr));
  return values;
}

struct SweepPass {
  std::string digest;
  std::vector<double> cell_s;
  double run_s = 0.0;    ///< sum of the supervisor's per-run wall times
  double sweep_s = 0.0;  ///< sum of run_sweep wall times
  std::uint64_t events = 0;
  double delivered_bytes = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t flows = 0;  ///< flows declared by the runs
  /// Events of every scenario (non-workload) run, in task order.
  std::vector<std::uint64_t> scenario_events;
};

SweepPass sweep_pass(std::vector<DslFile>& files,
                     const std::string& work_dir) {
  SweepPass pass;
  for (std::size_t i = 0; i < files.size(); ++i) {
    DslFile& f = files[i];
    const std::string stem = work_dir + "/sweep-" + std::to_string(i);
    f.options.csv_path = stem + ".csv";
    f.options.journal_path = stem + ".journal";
    const std::int64_t t0 = now_ns();
    const dsl::SweepOutcome outcome = dsl::run_sweep(f.doc, f.options);
    pass.sweep_s += static_cast<double>(now_ns() - t0) * 1e-9;

    // The journal holds each run's metric vector at %.17g.
    const std::uint64_t hash = dsl::plan_sweep(f.doc, f.options).config_hash;
    const std::map<std::size_t, std::string> payloads =
        robust::SweepJournal::load(f.options.journal_path, hash);
    std::remove(f.options.csv_path.c_str());
    std::remove(f.options.journal_path.c_str());

    for (std::size_t t = 0; t < outcome.report.cells.size(); ++t) {
      const robust::CellRecord& rec = outcome.report.cells[t];
      const dsl::CompiledCell& cell = f.cells[t / f.repeats];
      const auto it = payloads.find(t);
      const std::string payload = it == payloads.end() ? "" : it->second;
      const std::vector<double> values = parse_payload(payload);
      const bool ran = rec.outcome == robust::CellOutcome::kOk ||
                       rec.outcome == robust::CellOutcome::kRetried;
      // The last slot is "completed": every flow finished (scenario runs).
      const bool completed = !values.empty() && values.back() != 0.0;
      ++pass.attempted;
      if (!ran || values.empty() || (!cell.is_workload && !completed)) {
        ++pass.failed;
      }
      char head[200];
      std::snprintf(head, sizeof head, "%s#%zu %s events=%" PRIu64 " ",
                    f.path.c_str(), t,
                    std::string(robust::outcome_name(rec.outcome)).c_str(),
                    rec.events_executed);
      pass.digest += head + payload + "\n";
      pass.cell_s.push_back(rec.wall_sec);
      pass.run_s += rec.wall_sec;
      pass.events += rec.events_executed;
      if (cell.is_workload) {
        const double horizon = cell.open_loop.config().horizon.sec();
        if (values.size() > kGoodputGbpsSlot) {
          pass.delivered_bytes +=
              values[kGoodputGbpsSlot] * 1e9 / 8.0 * horizon;
        }
        pass.flows += 1;
      } else {
        if (values.size() > kDeliveredBytesSlot) {
          pass.delivered_bytes += values[kDeliveredBytesSlot];
        }
        pass.flows += static_cast<std::int64_t>(cell.scenario.flows().size());
        pass.scenario_events.push_back(rec.events_executed);
      }
    }
  }
  return pass;
}

std::string events_digest(const std::vector<std::uint64_t>& events) {
  std::string out;
  for (const std::uint64_t e : events) out += std::to_string(e) + " ";
  return out;
}

/// The traced run's direct path: every run built and run without the
/// supervisor, one span per build and per run. Returns its wall time.
struct DirectPass {
  double seconds = 0.0;
  std::vector<std::uint64_t> scenario_events;
  std::int64_t retransmissions = 0;
  std::int64_t timeouts = 0;
  std::int64_t drops = 0;
  std::uint64_t peak_pending = 0;
};

DirectPass direct_pass(const std::vector<DslFile>& files,
                       const std::string& workload, Tracer& tracer) {
  DirectPass out;
  const std::uint32_t build_id = tracer.name_id("app.build");
  const std::uint32_t run_id = tracer.name_id("app.run");
  const std::uint32_t workload_id = tracer.name_id("app.workload");
  std::uint64_t task_base = 0;
  for (const DslFile& f : files) {
    for (std::size_t cell = 0; cell < f.cells.size(); ++cell) {
      for (std::size_t rep = 0; rep < f.repeats; ++rep) {
        const std::uint64_t seed = app::derive_seed(f.base.seed, cell, rep);
        tracer.set_trace(trace_id(workload, task_base + cell * f.repeats + rep));
        const std::int64_t t0 = now_ns();
        if (f.cells[cell].is_workload) {
          Scope span(&tracer, workload_id);
          app::WorkloadBuilder wl = f.cells[cell].open_loop;
          wl.seed(seed);
          wl.run();
        } else {
          app::ScenarioBuilder builder = f.cells[cell].scenario;
          builder.seed(seed);
          std::unique_ptr<app::Scenario> scenario;
          {
            Scope span(&tracer, build_id);
            scenario = builder.build();
          }
          app::ScenarioResult r;
          {
            Scope span(&tracer, run_id);
            r = scenario->run();
          }
          out.scenario_events.push_back(r.profile.events_executed);
          out.peak_pending =
              std::max(out.peak_pending, r.profile.peak_pending_events);
          for (const app::FlowResult& flow : r.flows) {
            out.retransmissions += flow.retransmissions;
            out.timeouts += flow.timeouts;
          }
          out.drops += static_cast<std::int64_t>(r.bottleneck.dropped +
                                                 r.rx_backlog.dropped);
        }
        out.seconds += static_cast<double>(now_ns() - t0) * 1e-9;
      }
    }
    task_base += f.cells.size() * f.repeats;
  }
  return out;
}

}  // namespace

WorkloadOutcome run_dsl_workload(const RunArgs& args) {
  const DslSpec spec = args.workload == "paper_grid"
                           ? paper_grid_spec(args.seed)
                           : pack_sample_spec(args.seed);
  WorkloadOutcome result;
  result.config_json = "{\"files\":" + json_array(spec.files) +
                       ",\"overrides\":" + json_array(spec.overrides) +
                       ",\"repeats\":" + std::to_string(spec.repeats) +
                       ",\"seed\":" + std::to_string(spec.seed) +
                       ",\"jobs\":1,\"runner\":\"scenario_dsl::run_sweep\"}";

  Tracer tracer;
  Tracer* setup_tracer = args.trace ? &tracer : nullptr;
  std::vector<DslSetupTimes> setup;
  std::vector<double> setup_s;
  std::vector<DslFile> files;
  dsl_setup_pass(spec, nullptr, 0, files);  // warm-up, not a sample
  std::vector<SweepPass> passes;
  // A traced run makes direct passes before and after its measured pass, so
  // host drift and warm-up cancel out of the comparison with run_sweep.
  DirectPass direct_before;
  if (args.trace) direct_before = direct_pass(files, args.workload, tracer);
  // Measured passes: at least one, more while another fits in the budget.
  // Set-up samples are taken before every pass, spread over the run.
  const std::int64_t start = now_ns();
  for (std::int64_t pass_start = start;;) {
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
      setup.push_back(dsl_setup_pass(spec, setup_tracer,
                                     trace_id(args.workload, 0), files));
      setup_s.push_back(setup.back().total());
    }
    passes.push_back(sweep_pass(files, args.work_dir));
    const std::int64_t now = now_ns();
    const double last = static_cast<double>(now - pass_start) * 1e-9;
    const double elapsed = static_cast<double>(now - start) * 1e-9;
    if (args.trace || elapsed + last > args.seconds) break;
    pass_start = now;
  }
  result.setup_samples = setup_s.size();
  const SweepPass& first = passes.front();
  result.output_hash = hash_hex(first.digest);
  for (std::size_t i = 1; i < passes.size(); ++i) {
    result.checks.push_back({"pass" + std::to_string(i), result.output_hash,
                             hash_hex(passes[i].digest)});
  }
  result.attempted = first.attempted;
  result.failed = first.failed;
  result.passes = passes.size();

  // Per-run times: each run's median over the passes, so host noise
  // within the run does not reorder the runs.
  std::vector<double> run_s;
  std::vector<double> cell_s(first.cell_s.size());
  for (const SweepPass& p : passes) run_s.push_back(p.run_s);
  for (std::size_t t = 0; t < cell_s.size(); ++t) {
    std::vector<double> samples;
    for (const SweepPass& p : passes) samples.push_back(p.cell_s[t]);
    cell_s[t] = median(samples);
  }
  result.cell_samples = cell_s.size();
  result.pass_run_s = run_s;
  const double run = median(run_s);
  Metrics& m = result.metrics;

  if (!args.trace) {
    const double rss = peak_rss_mb();
    m.add("setup_s", median(setup_s), "s");
    m.add("run_s", run, "s");
    m.add("events_per_s", static_cast<double>(first.events) / run, "1/s");
    m.add("sim_mb_per_s", first.delivered_bytes / 1e6 / run, "MB/s");
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

  add_dsl_setup_metrics(setup, m);
  const DirectPass direct = direct_pass(files, args.workload, tracer);
  const std::string events = hash_hex(events_digest(first.scenario_events));
  result.checks.push_back(
      {"direct_before", events, hash_hex(events_digest(direct_before.scenario_events))});
  result.checks.push_back(
      {"direct_after", events, hash_hex(events_digest(direct.scenario_events))});
  const double direct_s = 0.5 * (direct_before.seconds + direct.seconds);
  m.add("sim.events", static_cast<double>(first.events), "count");
  m.add("sim.peak_pending", static_cast<double>(direct.peak_pending), "count");
  m.add("tcp.retransmissions", static_cast<double>(direct.retransmissions),
        "count");
  m.add("tcp.timeouts", static_cast<double>(direct.timeouts), "count");
  m.add("net.drops", static_cast<double>(direct.drops), "count");
  m.add("robust.sweep_overhead_s", first.sweep_s - direct_s, "s");
  m.add("tracing.overhead_s", direct_s - first.run_s, "s");

  // The per-packet layers of a dsl-built Scenario are private to it; the
  // same decorators run on a small fleet fabric instead.
  FabricConfig probe_fabric;
  probe_fabric.flows = 4'000;
  probe_fabric.seed = args.seed;
  tracer.set_trace(trace_id(args.workload, 1u << 20));
  traced_fabric(probe_fabric, sim::Simulator::default_queue_kind(), tracer, m);
  finish_traced_run(args, tracer, result);
  return result;
}

}  // namespace greenbench
