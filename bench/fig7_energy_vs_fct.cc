// Figure 7: "Energy consumption vs flow completion time for different CCAs
// transmitting 50 GB of data."
//
// Every (CCA, MTU) cell becomes one scatter point. The paper's plot shows a
// strong positive relation with two clusters: large-MTU runs in the
// bottom-left (fast and frugal) and MTU-1500 runs in the top-right.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>

#include "common.h"
#include "core/efficiency.h"
#include "robust/shutdown.h"
#include "stats/stats.h"
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
      "Figure 7 — energy vs. flow completion time (50 GB equivalents)",
      "energy is strongly correlated with FCT; MTU-1500 runs cluster at "
      "long FCT / high energy, jumbo-frame runs at short FCT / low energy");

  std::optional<bench::PaperGrid> grid = bench::load_paper_grid(*run);
  if (!grid) return 1;
  auto& [cells, mtus, health] = *grid;

  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    return a.fct_sec < b.fct_sec;
  });

  stats::Table table({"cca", "mtu", "fct[s]", "energy[kJ]"});
  for (const auto& cell : cells) {
    table.add_row({cell.cca, std::to_string(cell.mtu_bytes),
                   stats::Table::num(cell.fct_sec, 1),
                   stats::Table::num(cell.energy_joules / 1e3, 3)});
  }
  table.print(std::cout);
  table.write_csv(bench::flag_str(argc, argv, "--csv", "fig7.csv"));

  core::EfficiencyReport report;
  for (const auto& cell : cells) report.add(cell);
  std::printf("\ncorr(energy, FCT) = %+.2f (paper: strong positive)\n",
              report.corr_energy_fct());

  // Cluster summary: mean FCT of MTU-1500 cells vs the rest.
  stats::Summary small_mtu, large_mtu;
  for (const auto& cell : cells) {
    (cell.mtu_bytes == 1500 ? small_mtu : large_mtu).add(cell.fct_sec);
  }
  std::printf("clusters: MTU1500 mean FCT %.1f s vs larger MTUs %.1f s "
              "(paper: ~60-90 s vs ~45-57 s)\n",
              small_mtu.mean(), large_mtu.mean());
  return health.complete() ? 0 : robust::kPartialResultsExit;
}
