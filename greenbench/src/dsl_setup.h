#pragma once

// The scenario-DSL side of the benchmark: which files the `paper_grid` and
// `pack_sample` workloads run, and the timed set-up pass (load, expand,
// compile, build) that run_sweep would otherwise pay inside its own call.

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "scenario_dsl/compile.h"
#include "scenario_dsl/doc.h"
#include "scenario_dsl/runner.h"
#include "span.h"

namespace greenbench {

struct DslSpec {
  std::vector<std::string> files;      ///< relative to the checkout root
  std::vector<std::string> overrides;  ///< --set path=value, every file
  int repeats = 0;                     ///< > 0 overrides scenario.repeats
  std::uint64_t seed = 1;              ///< base seed override, every file
};

/// Figures 5-8: scenarios/cca_grid.toml, 1 repeat, 200 MB flows.
DslSpec paper_grid_spec(std::uint64_t seed);
/// One file per scenarios/pack/ family, drawn by dsl::sample_pack with a
/// fixed pick seed (the run seed only seeds the simulations).
DslSpec pack_sample_spec(std::uint64_t seed);

/// One file's sweep as run_sweep will see it: the loaded document, the
/// options every run uses, and the expanded, compiled cells.
struct DslFile {
  std::string path;
  greencc::dsl::ScenarioDoc doc;
  greencc::dsl::RunOptions options;
  greencc::dsl::ScenarioDoc base;  ///< doc with the options applied
  std::vector<greencc::dsl::CompiledCell> cells;
  std::size_t repeats = 0;
};

struct DslSetupTimes {
  double load_s = 0.0;
  double expand_s = 0.0;
  double compile_s = 0.0;
  double build_s = 0.0;
  double total() const { return load_s + expand_s + compile_s + build_s; }
};

/// One set-up pass over every file: load + effective_doc, expand_sweep +
/// doc_for_cell, compile_scenario per cell, and ScenarioBuilder::build for
/// every (cell, repeat) run (destroyed unrun). Spans when tracer != null.
/// The prepared files replace the contents of `files`.
DslSetupTimes dsl_setup_pass(const DslSpec& spec, Tracer* tracer,
                             std::uint64_t trace_base,
                             std::vector<DslFile>& files);

/// scenario_dsl.{load,expand,compile}_ms and app.build_ms: medians.
void add_dsl_setup_metrics(const std::vector<DslSetupTimes>& reps,
                           Metrics& out);

}  // namespace greenbench
