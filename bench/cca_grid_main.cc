// Standalone driver for the Figures 5-8 measurement grid — now a thin
// wrapper over the committed scenario file scenarios/cca_grid.toml,
// executed by the scenario DSL runner (src/scenario_dsl/). The legacy CLI
// is kept verbatim; each flag lowers onto a RunOptions override, so the
// CSV stays byte-identical to the historical hand-written sweep (the
// byte-identity suite pins this).
//
//   cca_grid --jobs 8 --repeats 3 --csv grid.csv
//            --journal grid_journal.jsonl --deadline 120 --retries 2
//
// The sweep runs supervised: `--deadline SEC` and `--event-budget N` bound
// each run, `--retries K` re-attempts throwing cells before quarantine,
// `--journal FILE` appends each finished run crash-safely and `--resume`
// replays it, re-running only what is missing. SIGINT/SIGTERM stop
// dispatch, flush the journal and exit 75 (partial results). Figures 5-8
// run the same sweep and share its default journal, cca_grid_journal.jsonl.

#include <cstdio>
#include <optional>
#include <string>

#include "common.h"
#include "robust/shutdown.h"
#include "scenario_dsl/doc.h"
#include "sweep.h"

using namespace greencc;

int main(int argc, char** argv) {
  robust::install_shutdown_handler();

  const std::optional<dsl::RunOptions> run =
      bench::sweep_run_options(argc, argv, units::Bytes{bench::kDefaultBytes},
                               "cca_grid");
  if (!run) return 2;

  const std::string scenario_file =
      bench::flag_str(argc, argv, "--scenario", bench::kPaperGridFile);

  bench::print_header(
      "CCA x MTU measurement grid (shared by Figures 5-8)",
      "energy, power, FCT and retransmissions per cell, 50 GB-equivalent");

  try {
    dsl::ScenarioDoc doc = dsl::load_scenario_file(scenario_file);
    // --mtu M restricts the sweep to one MTU (used by the audit preset to
    // keep the checked sweep cheap); default remains the full paper set.
    if (const std::int64_t mtu = bench::flag_i64(argc, argv, "--mtu", 0);
        mtu) {
      for (dsl::AxisDoc& axis : doc.axes) {
        if (axis.name != "mtu") continue;
        dsl::TomlValue v;
        v.kind = dsl::TomlValue::Kind::kInt;
        v.integer = mtu;
        v.number = static_cast<double>(mtu);
        axis.values = {{v}};
      }
    }
    const dsl::SweepOutcome outcome = dsl::run_sweep(doc, *run);
    std::fprintf(stderr, "  %s\n", outcome.report.summary().c_str());
    std::printf("wrote %zu cells to %s (jobs=%d)\n", outcome.cells,
                outcome.csv_path.c_str(), run->jobs);
    return outcome.report.complete() ? 0 : robust::kPartialResultsExit;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cca_grid: %s\n", e.what());
    return 1;
  }
}
