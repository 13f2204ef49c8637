#pragma once

// The four benchmark workloads. Each runs serially on one thread, measures
// for about `seconds` (at least one full pass), checks its own outputs and
// returns the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run).

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "span.h"

namespace greenbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (sweep CSVs, journals, spans)
};

struct WorkloadOutcome {
  Metrics metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Hash of the simulated outputs of the measured pass.
  std::string output_hash;
  /// Every cross-check made: two independent paths to the same simulated
  /// outputs. The run fails unless each pair agrees.
  struct Check {
    std::string label;
    std::string expected;
    std::string actual;
  };
  std::vector<Check> checks;
  std::string config_json;  ///< full workload configuration
  std::size_t passes = 0;
  std::size_t setup_samples = 0;
  std::size_t cell_samples = 0;  ///< runs behind the cell quantiles
  std::vector<double> pass_run_s;  ///< run_s of every measured pass
  std::string spans_path;  ///< traced run only
};

WorkloadOutcome run_fabric_workload(const RunArgs& args);
WorkloadOutcome run_dsl_workload(const RunArgs& args);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// One span trace id per (workload, cell).
std::uint64_t trace_id(const std::string& workload, std::uint64_t cell);

/// Ends a traced run: runs the layer probes, counts the spans and writes
/// them to the work directory.
void finish_traced_run(const RunArgs& args, Tracer& tracer,
                       WorkloadOutcome& result);

}  // namespace greenbench
