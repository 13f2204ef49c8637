// Figure 5: "Average energy consumption of the CCAs to transmit 50 GB of
// data" — the full CCA x MTU energy grid with error bars, plus §4.3/§4.4's
// quantitative claims: CCAs beat the no-CC baseline by 8.2-14.2%, the BBR
// versions differ by ~40%, and MTU 1500 -> 9000 saves 13.4-31.9%.

#include <cstdio>
#include <iostream>
#include <optional>

#include "cca/cca.h"
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
      "Figure 5 — energy per CCA and MTU (50 GB-equivalent transfers)",
      "all CCAs except BBR2 use 8.2-14.2% less energy than the constant-cwnd "
      "baseline; BBR vs BBR2 differ ~40%; larger MTUs save 13.4-31.9%");

  const std::optional<bench::PaperGrid> grid = bench::load_paper_grid(*run);
  if (!grid) return 1;
  const auto& [cells, mtus, health] = *grid;

  core::EfficiencyReport report;
  for (const auto& cell : cells) report.add(cell);

  stats::Table table({"cca", "mtu1500[kJ]", "sd[J]", "mtu3000[kJ]", "sd[J]",
                      "mtu6000[kJ]", "sd[J]", "mtu9000[kJ]", "sd[J]"});
  for (const auto& name : cca::all_names()) {
    std::vector<std::string> row = {name};
    for (int mtu : mtus) {
      for (const auto& cell : cells) {
        if (cell.cca == name && cell.mtu_bytes == mtu) {
          row.push_back(stats::Table::num(cell.energy_joules / 1e3, 3));
          row.push_back(stats::Table::num(cell.energy_stddev, 1));
        }
      }
    }
    table.add_row(row);
  }
  table.print(std::cout);
  table.write_csv(bench::flag_str(argc, argv, "--csv", "fig5.csv"));

  // --- §4.3: CCAs vs the baseline, averaged over MTUs ---
  std::printf("\nenergy savings vs. the constant-cwnd baseline "
              "(mean over MTUs; paper: 8.2%%-14.2%% for all but BBR2):\n");
  for (const auto& name : cca::all_names()) {
    if (name == "baseline") continue;
    double sum = 0.0;
    for (int mtu : mtus) {
      sum += report.savings_vs(name, "baseline", mtu);
    }
    std::printf("  %-10s %+6.2f%%\n", name.c_str(),
                100.0 * sum / static_cast<double>(mtus.size()));
  }

  // --- §4.3: BBR vs BBR2 ---
  double bbr = 0.0, bbr2 = 0.0;
  for (const auto& cell : cells) {
    if (cell.cca == "bbr") bbr += cell.energy_joules;
    if (cell.cca == "bbr2") bbr2 += cell.energy_joules;
  }
  std::printf("\nBBR2-alpha uses %.1f%% more energy than BBR v1 "
              "(paper: ~40%%)\n", 100.0 * (bbr2 - bbr) / bbr);

  // --- §4.4: MTU savings ---
  std::printf("\nenergy saved going MTU 1500 -> 9000 "
              "(paper: 13.4%%-31.9%%):\n");
  for (const auto& name : cca::all_names()) {
    std::printf("  %-10s %5.1f%%\n", name.c_str(),
                100.0 * report.mtu_savings(name));
  }
  return health.complete() ? 0 : robust::kPartialResultsExit;
}
