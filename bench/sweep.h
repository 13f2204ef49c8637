#pragma once

// The one sweep path shared by the grid benches: the bench flag surface
// lowered onto dsl::RunOptions, and the Figures 5-8 measurement grid run by
// the scenario DSL runner on the committed scenarios/cca_grid.toml.

#include <optional>
#include <string>
#include <vector>

#include "core/efficiency.h"
#include "robust/supervisor.h"
#include "scenario_dsl/runner.h"
#include "units/units.h"

namespace greencc::bench {

/// scenarios/cca_grid.toml: every paper CCA x MTUs {1500, 3000, 6000, 9000}.
extern const char* const kPaperGridFile;

/// Parses the flags every sweep bench accepts into RunOptions:
/// `--bytes N` (first flow's transfer, default `default_size`),
/// `--repeats K --seed S --jobs J --audit --csv FILE`, and the supervision
/// surface `--deadline SEC --event-budget N --retries K --journal FILE
/// --resume --isolate[=N] --cell-mem-budget B --heartbeat SEC` (retries K
/// means K + 1 attempts). `name` picks the default outputs: `<name>.csv`,
/// and `<name>_journal.jsonl` for `--resume` without `--journal`. Prints
/// an error and returns nullopt for a malformed `--cell-mem-budget`;
/// callers exit 2.
std::optional<dsl::RunOptions> sweep_run_options(int argc, char** argv,
                                                 units::Bytes default_size,
                                                 const std::string& name);

/// The Figures 5-8 grid as the figures consume it.
struct PaperGrid {
  /// One cell per (CCA, MTU) in sweep order (MTU-major), energy, FCT and
  /// retransmissions scaled to the paper's 50 GB transfer.
  std::vector<core::GridCell> cells;
  /// The MTUs the cells cover, in sweep order.
  std::vector<int> mtus;
  /// Callers exit robust::kPartialResultsExit when !report.complete();
  /// cells whose every repeat failed carry zeros.
  robust::SweepReport report;
};

/// Runs kPaperGridFile under `run`, always resuming from the journal
/// (default `cca_grid_journal.jsonl`), so a grid measured once — by any
/// figure or by `cca_grid --resume` — is replayed, not re-simulated, and a
/// partial one re-runs only its missing cells. The cells are read back from
/// the sweep's CSV, which always goes to `cca_grid.csv` (a figure's `--csv`
/// names its own table). Prints the supervisor summary to stderr. Prints
/// the error and returns nullopt when the sweep cannot be set up or its
/// CSV cannot be read back; callers exit 1.
std::optional<PaperGrid> load_paper_grid(dsl::RunOptions run);

}  // namespace greencc::bench
