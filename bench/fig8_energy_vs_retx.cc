// Figure 8: "Energy consumption vs retransmissions for different CCAs
// transmitting 50 GB of data."
//
// One scatter point per (CCA, MTU) cell. §4.5 reports corr = 0.47 when the
// highly variable BBR2 measurements are excluded, and observes that the
// no-CC baseline "naturally induces a higher rate of retransmissions and
// ends up consuming a larger amount of energy on average".

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>

#include "common.h"
#include "core/efficiency.h"
#include "robust/shutdown.h"
#include "stats/table.h"
#include "sweep.h"

using namespace greencc;

int main(int argc, char** argv) {
  robust::install_shutdown_handler();
  const std::optional<dsl::RunOptions> run =
      bench::sweep_run_options(argc, argv, units::Bytes{bench::kDefaultBytes},
                               "cca_grid");
  if (!run) return 2;

  bench::print_header(
      "Figure 8 — energy vs. retransmissions (50 GB equivalents)",
      "corr(energy, retx) ~ 0.47 excluding BBR2; the baseline has by far "
      "the most retransmissions and above-average energy");

  std::optional<bench::PaperGrid> grid = bench::load_paper_grid(*run);
  if (!grid) return 1;
  auto& [cells, mtus, health] = *grid;

  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    return a.retransmissions < b.retransmissions;
  });

  stats::Table table({"cca", "mtu", "retx[pkts]", "energy[kJ]"});
  for (const auto& cell : cells) {
    table.add_row({cell.cca, std::to_string(cell.mtu_bytes),
                   stats::Table::num(cell.retransmissions, 0),
                   stats::Table::num(cell.energy_joules / 1e3, 3)});
  }
  table.print(std::cout);
  table.write_csv(bench::flag_str(argc, argv, "--csv", "fig8.csv"));

  core::EfficiencyReport report;
  for (const auto& cell : cells) report.add(cell);
  std::printf("\ncorr(energy, retx) excluding bbr2 = %+.2f (paper: 0.47)\n",
              report.corr_energy_retx("bbr2"));
  std::printf("corr(energy, retx) including bbr2 = %+.2f\n",
              report.corr_energy_retx());

  // Baseline has the most retransmissions at every MTU.
  bool baseline_max = true;
  for (int mtu : mtus) {
    double base = 0.0, best_other = 0.0;
    for (const auto& cell : cells) {
      if (cell.mtu_bytes != mtu) continue;
      if (cell.cca == "baseline") {
        base = cell.retransmissions;
      } else {
        best_other = std::max(best_other, cell.retransmissions);
      }
    }
    if (base <= best_other) baseline_max = false;
  }
  std::printf("baseline has the most retransmissions at every MTU: %s\n",
              baseline_max ? "PASS" : "FAIL");
  return health.complete() ? 0 : robust::kPartialResultsExit;
}
