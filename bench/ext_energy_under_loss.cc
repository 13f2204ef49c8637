// Extension: energy under non-congestive loss — the paper's J/GB ordering
// of CCAs (§4, Figs 5-8) measured on a clean 10 Gb/s bottleneck, re-swept
// across injected random-loss rates via the fault subsystem (src/fault/).
// Loss-tolerant model-based algorithms (BBRv1/v2) hold goodput — and
// therefore J/GB — roughly flat as the loss rate climbs, while loss-as-
// signal algorithms (Reno, CUBIC, Westwood) collapse: each spurious window
// cut stretches the transfer, and idle-ish watts times a longer transfer is
// more joules per delivered gigabyte.
//
// Now a thin wrapper over scenarios/ext_energy_under_loss.toml, executed
// by the scenario DSL runner; the legacy CLI lowers onto RunOptions
// overrides and the CSV stays byte-identical to the historical
// hand-written sweep.
//
//   ext_energy_under_loss [--bytes N] [--repeats K] [--jobs N]
//                         [--seed S] [--csv FILE] [--audit]
//                         [--deadline SEC] [--event-budget N] [--retries K]
//                         [--journal FILE] [--resume]

#include <cstdio>
#include <optional>
#include <string>

#include "common.h"
#include "robust/shutdown.h"
#include "scenario_dsl/doc.h"
#include "sweep.h"

#ifndef GREENCC_SCENARIO_FILE
#define GREENCC_SCENARIO_FILE "scenarios/ext_energy_under_loss.toml"
#endif

using namespace greencc;

int main(int argc, char** argv) {
  robust::install_shutdown_handler();

  // Loss stretches FCTs ~10x at the high end; the scenario's modest default
  // transfer keeps the full sweep minutes, not hours. --bytes scales it.
  const std::optional<dsl::RunOptions> run = bench::sweep_run_options(
      argc, argv, units::Bytes{200'000'000}, "ext_energy_under_loss");
  if (!run) return 2;

  const std::string scenario_file =
      bench::flag_str(argc, argv, "--scenario", GREENCC_SCENARIO_FILE);

  bench::print_header(
      "Extension — energy per delivered GB under injected random loss",
      "\"unfair congestion control algorithms can be more energy "
      "efficient\" — and so can loss-tolerant ones once the wire itself "
      "drops packets");

  try {
    const dsl::ScenarioDoc doc = dsl::load_scenario_file(scenario_file);
    const dsl::SweepOutcome outcome = dsl::run_sweep(doc, *run);
    std::fprintf(stderr, "  %s\n", outcome.report.summary().c_str());
    std::printf(
        "wrote %zu cells to %s\n"
        "\n(J/GB = sender energy over delivered gigabytes; loss is the "
        "bottleneck's injected i.i.d. drop rate. Loss-based CCAs pay for "
        "every spurious cut with idle watts; model-based ones mostly "
        "don't.)\n",
        outcome.cells, outcome.csv_path.c_str());
    return outcome.report.complete() ? 0 : robust::kPartialResultsExit;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ext_energy_under_loss: %s\n", e.what());
    return 1;
  }
}
