// Regenerates Figures 2-5: the graphical form of Table 1.
//   Figure 2: average sequential time vs level (log y), both tolerances
//   Figure 3: weighted average number of machines vs level
//   Figure 4: average concurrent time vs level (log y), both tolerances
//   Figure 5: average speedup vs level
//
// Emits the four series in gnuplot-ready columns with the paper reference
// values alongside.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/paper_reference.hpp"
#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "examples/cli.hpp"

int main(int argc, char** argv) {
  int runs = 5;
  int max_level = 15;
  namespace cli = mg::examples::cli;
  cli::Table("fig2to5_curves",
             {cli::count("--runs", runs, {1}, "runs averaged per point"),
              cli::count("--max-level", max_level, cli::kRoot2Levels, "last level")})
      .parse_or_exit(argc, argv);

  const mg::cluster::AthlonCostModel cost;
  mg::cluster::SimConfig config;
  config.runs = runs;

  const auto rows3 = mg::cluster::simulate_table(2, max_level, 1e-3, cost, config);
  const auto rows4 = mg::cluster::simulate_table(2, max_level, 1e-4, cost, config);

  struct FigureSpec {
    const char* title;
    const char* quantity;
    bool log_scale;
    double mg::cluster::TableRow::* field;
    double mg::bench::PaperRow::* ref_field;
  };
  const FigureSpec figures[] = {
      {"Figure 2", "average sequential time st [s]", true, &mg::cluster::TableRow::st,
       &mg::bench::PaperRow::st},
      {"Figure 3", "weighted average machines m", false, &mg::cluster::TableRow::m,
       &mg::bench::PaperRow::m},
      {"Figure 4", "average concurrent time ct [s]", true, &mg::cluster::TableRow::ct,
       &mg::bench::PaperRow::ct},
      {"Figure 5", "average speedup su", false, &mg::cluster::TableRow::su,
       &mg::bench::PaperRow::su},
  };

  for (const auto& fig : figures) {
    std::printf("\n=== %s: %s vs level%s ===\n", fig.title, fig.quantity,
                fig.log_scale ? " (log y in the paper)" : "");
    std::printf("%5s %12s %12s %12s %12s\n", "level", "1.0e-3", "1.0e-4", "ref 1e-3", "ref 1e-4");
    for (std::size_t i = 0; i < rows3.size(); ++i) {
      const int level = rows3[i].level;
      double ref3 = NAN, ref4 = NAN;
      for (const auto& r : mg::bench::kPaperTable1e3) {
        if (r.level == level) ref3 = r.*fig.ref_field;
      }
      for (const auto& r : mg::bench::kPaperTable1e4) {
        if (r.level == level) ref4 = r.*fig.ref_field;
      }
      std::printf("%5d %12.2f %12.2f %12.2f %12.2f\n", level, rows3[i].*fig.field,
                  rows4[i].*fig.field, ref3, ref4);
    }
  }
  return 0;
}
