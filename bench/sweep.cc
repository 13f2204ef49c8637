#include "sweep.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "robust/subprocess.h"
#include "scenario_dsl/doc.h"

#ifndef GREENCC_SCENARIO_FILE
#define GREENCC_SCENARIO_FILE "scenarios/cca_grid.toml"
#endif

namespace greencc::bench {

const char* const kPaperGridFile = GREENCC_SCENARIO_FILE;

namespace {

/// The [output] columns of cca_grid.toml, in core::GridCell field order.
constexpr const char* kGridHeader =
    "cca,mtu_bytes,energy_joules,energy_stddev,power_watts,fct_sec,"
    "retransmissions";

std::vector<core::GridCell> read_grid_csv(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line) || line != kGridHeader) {
    throw std::runtime_error(path + ": expected header '" + kGridHeader +
                             "'");
  }
  std::vector<core::GridCell> cells;
  while (std::getline(in, line)) {
    std::replace(line.begin(), line.end(), ',', ' ');
    std::istringstream row(line);
    core::GridCell cell;
    if (!(row >> cell.cca >> cell.mtu_bytes >> cell.energy_joules >>
          cell.energy_stddev >> cell.power_watts >> cell.fct_sec >>
          cell.retransmissions)) {
      throw std::runtime_error(path + ": malformed row '" + line + "'");
    }
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace

std::optional<dsl::RunOptions> sweep_run_options(int argc, char** argv,
                                                 units::Bytes default_size,
                                                 const std::string& name) {
  dsl::RunOptions run;
  run.overrides.push_back(
      "flow.0.bytes=" + std::to_string(flag_i64(argc, argv, "--bytes",
                                                default_size.count())));
  run.repeats = static_cast<int>(flag_i64(argc, argv, "--repeats", 3));
  run.have_seed = true;
  run.seed = static_cast<std::uint64_t>(flag_i64(argc, argv, "--seed", 1));
  run.jobs = flag_jobs(argc, argv);
  run.audit = flag_set(argc, argv, "--audit");
  run.csv_path = flag_str(argc, argv, "--csv", name + ".csv");
  run.cell_deadline_sec = flag_double(argc, argv, "--deadline", 0.0);
  run.event_budget =
      static_cast<std::uint64_t>(flag_i64(argc, argv, "--event-budget", 0));
  run.max_attempts =
      static_cast<int>(flag_i64(argc, argv, "--retries", 0)) + 1;
  run.journal_path = flag_str(argc, argv, "--journal", "");
  run.resume = flag_set(argc, argv, "--resume");
  if (run.resume && run.journal_path.empty()) {
    run.journal_path = name + "_journal.jsonl";
  }
  run.isolate_workers = flag_isolate(argc, argv);
  if (const std::string budget = flag_str(argc, argv, "--cell-mem-budget", "");
      !budget.empty()) {
    run.cell_mem_budget_bytes = robust::parse_mem_budget(budget);
    if (run.cell_mem_budget_bytes < 0) {
      std::fprintf(stderr, "error: bad --cell-mem-budget '%s'\n",
                   budget.c_str());
      return std::nullopt;
    }
  }
  run.heartbeat_timeout_sec =
      flag_double(argc, argv, "--heartbeat", run.heartbeat_timeout_sec);
  run.progress = true;
  return run;
}

std::optional<PaperGrid> load_paper_grid(dsl::RunOptions run) {
  run.csv_path = "cca_grid.csv";
  run.resume = true;
  if (run.journal_path.empty()) run.journal_path = "cca_grid_journal.jsonl";
  try {
    const dsl::SweepOutcome outcome =
        dsl::run_sweep(dsl::load_scenario_file(kPaperGridFile), run);
    std::fprintf(stderr, "  %s\n", outcome.report.summary().c_str());
    PaperGrid grid;
    grid.cells = read_grid_csv(outcome.csv_path);
    grid.report = outcome.report;
    for (const core::GridCell& cell : grid.cells) {
      if (std::find(grid.mtus.begin(), grid.mtus.end(), cell.mtu_bytes) ==
          grid.mtus.end()) {
        grid.mtus.push_back(cell.mtu_bytes);
      }
    }
    return grid;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return std::nullopt;
  }
}

}  // namespace greencc::bench
