#include "dsl_setup.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "app/parallel_runner.h"
#include "app/scenario.h"
#include "scenario_dsl/pack.h"
#include "scenario_dsl/sweep.h"

namespace greenbench {

using namespace greencc;

namespace {

/// Fixed seed of the per-family pick, so every run samples the same files.
constexpr std::uint64_t kPackPickSeed = 1;

double since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

}  // namespace

DslSpec paper_grid_spec(std::uint64_t seed) {
  DslSpec spec;
  spec.files = {"scenarios/cca_grid.toml"};
  spec.overrides = {"flow.0.bytes=200MB"};
  spec.repeats = 1;
  spec.seed = seed;
  return spec;
}

DslSpec pack_sample_spec(std::uint64_t seed) {
  DslSpec spec;
  spec.seed = seed;
  std::vector<std::string> families;
  for (const auto& entry :
       std::filesystem::directory_iterator("scenarios/pack")) {
    if (entry.is_directory()) families.push_back(entry.path().string());
  }
  std::sort(families.begin(), families.end());
  for (const std::string& family : families) {
    for (const std::string& file :
         dsl::sample_pack(dsl::list_scenarios(family), 1, kPackPickSeed)) {
      spec.files.push_back(file);
    }
  }
  return spec;
}

DslSetupTimes dsl_setup_pass(const DslSpec& spec, Tracer* tracer,
                             std::uint64_t trace_base,
                             std::vector<DslFile>& files) {
  const std::uint32_t load_id =
      tracer != nullptr ? tracer->name_id("scenario_dsl.load") : 0;
  const std::uint32_t expand_id =
      tracer != nullptr ? tracer->name_id("scenario_dsl.expand") : 0;
  const std::uint32_t compile_id =
      tracer != nullptr ? tracer->name_id("scenario_dsl.compile") : 0;
  const std::uint32_t build_id =
      tracer != nullptr ? tracer->name_id("app.build") : 0;

  files.clear();
  DslSetupTimes times;
  std::uint64_t cell_base = 0;
  for (const std::string& path : spec.files) {
    DslFile& f = files.emplace_back();
    f.path = path;
    f.options.jobs = 1;
    f.options.repeats = spec.repeats;
    f.options.have_seed = true;
    f.options.seed = spec.seed;
    f.options.overrides = spec.overrides;
    f.options.progress = false;

    std::int64_t t0 = now_ns();
    {
      Scope span(tracer, load_id);
      f.doc = dsl::load_scenario_file(path);
      f.base = dsl::effective_doc(f.doc, f.options);
    }
    times.load_s += since(t0);

    t0 = now_ns();
    std::vector<dsl::ScenarioDoc> cell_docs;
    {
      Scope span(tracer, expand_id);
      for (const dsl::SweepCell& cell : dsl::expand_sweep(f.base).cells) {
        cell_docs.push_back(dsl::doc_for_cell(f.base, cell));
      }
    }
    times.expand_s += since(t0);

    for (const dsl::ScenarioDoc& doc : cell_docs) {
      t0 = now_ns();
      {
        Scope span(tracer, compile_id);
        f.cells.push_back(dsl::compile_scenario(doc));
      }
      times.compile_s += since(t0);
    }

    f.repeats = static_cast<std::size_t>(f.base.repeats);
    for (std::size_t cell = 0; cell < f.cells.size(); ++cell) {
      if (f.cells[cell].is_workload) continue;  // built inside its run
      for (std::size_t rep = 0; rep < f.repeats; ++rep) {
        if (tracer != nullptr) {
          tracer->set_trace(trace_base + cell_base + cell * f.repeats + rep);
        }
        app::ScenarioBuilder builder = f.cells[cell].scenario;
        builder.seed(app::derive_seed(f.base.seed, cell, rep));
        std::unique_ptr<app::Scenario> scenario;
        t0 = now_ns();
        {
          Scope span(tracer, build_id);
          scenario = builder.build();
        }
        times.build_s += since(t0);
        scenario.reset();  // teardown is not set-up time
      }
    }
    cell_base += f.cells.size() * f.repeats;
  }
  return times;
}

void add_dsl_setup_metrics(const std::vector<DslSetupTimes>& reps,
                           Metrics& out) {
  std::vector<double> load, expand, compile, build;
  for (const DslSetupTimes& t : reps) {
    load.push_back(t.load_s * 1e3);
    expand.push_back(t.expand_s * 1e3);
    compile.push_back(t.compile_s * 1e3);
    build.push_back(t.build_s * 1e3);
  }
  out.add("scenario_dsl.load_ms", median(load), "ms");
  out.add("scenario_dsl.expand_ms", median(expand), "ms");
  out.add("scenario_dsl.compile_ms", median(compile), "ms");
  out.add("app.build_ms", median(build), "ms");
}

}  // namespace greenbench
