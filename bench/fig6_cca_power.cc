// Figure 6: "Rate of energy consumption for the CCAs to transmit 50 GB of
// data" — average power per CCA and MTU. §4.3 notes the ordering differs
// drastically from Figure 5's energy ordering: corr(energy, power) ~ -0.8,
// i.e. algorithms that draw less power per second tend to run longer and
// spend *more* energy in total.

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
      "Figure 6 — average power per CCA and MTU",
      "power ordering nearly inverts the energy ordering: "
      "corr(energy, power) ~ -0.8");

  const std::optional<bench::PaperGrid> grid = bench::load_paper_grid(*run);
  if (!grid) return 1;
  const auto& [cells, mtus, health] = *grid;

  core::EfficiencyReport report;
  for (const auto& cell : cells) report.add(cell);

  stats::Table table({"cca", "mtu1500[W]", "mtu3000[W]", "mtu6000[W]",
                      "mtu9000[W]"});
  for (const auto& name : cca::all_names()) {
    std::vector<std::string> row = {name};
    for (int mtu : mtus) {
      for (const auto& cell : cells) {
        if (cell.cca == name && cell.mtu_bytes == mtu) {
          row.push_back(stats::Table::num(cell.power_watts, 2));
        }
      }
    }
    table.add_row(row);
  }
  table.print(std::cout);
  table.write_csv(bench::flag_str(argc, argv, "--csv", "fig6.csv"));

  // The paper's -0.8 compares the CCA orderings at fixed MTU (its Figs 5
  // and 6 are both sorted "for 1500 Bytes of MTU").
  std::printf("\ncorr(energy, power) across CCAs at MTU 1500: %+.2f "
              "(paper: -0.8)\n",
              report.corr_energy_power(1500));
  for (int mtu : {3000, 6000, 9000}) {
    std::printf("corr(energy, power) across CCAs at MTU %d: %+.2f\n", mtu,
                report.corr_energy_power(mtu));
  }

  // The paper also highlights the ~14% power spread between CCAs at fixed
  // MTU; report ours at 1500 B.
  double lo = 1e9, hi = 0.0;
  for (const auto& cell : cells) {
    if (cell.mtu_bytes != 1500) continue;
    lo = std::min(lo, cell.power_watts);
    hi = std::max(hi, cell.power_watts);
  }
  std::printf("power spread across CCAs at MTU 1500: %.1f%% "
              "(paper: ~14%%)\n", 100.0 * (hi - lo) / hi);
  return health.complete() ? 0 : robust::kPartialResultsExit;
}
