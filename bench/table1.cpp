// Regenerates Table 1 of the paper: st, ct, m, su for root = 2, levels
// 0..15, integrator tolerances 1.0e-3 and 1.0e-4, averaged over five runs —
// on the simulated 32-node Athlon cluster with the Athlon-calibrated cost
// model.  Paper values are printed alongside for comparison.
//
// --report=PATH writes a machine-readable JSON run report (see
// src/obs/report.hpp for the schema): the st/ct/m/su rows for both
// tolerances plus a snapshot of the metrics registry.
//
// --trace=PATH writes the simulator's virtual-time schedule (every level and
// run of both tolerance sweeps) as Chrome trace_event JSON — the same flag
// the real solver and the solve service take.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/paper_reference.hpp"
#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/sim_report.hpp"
#include "examples/cli.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"

namespace {

void print_block(const char* title, const std::vector<mg::cluster::TableRow>& rows,
                 const mg::bench::PaperRow* paper, std::size_t paper_count) {
  std::printf("\n=== Table 1 (%s runs) — simulated vs paper ===\n", title);
  std::printf("%5s | %9s %9s %5s %5s | %9s %9s %5s %5s | %s\n", "level", "st", "ct", "m", "su",
              "st_ref", "ct_ref", "m_ref", "su_ref", "note");
  for (const auto& row : rows) {
    const mg::bench::PaperRow* ref = nullptr;
    for (std::size_t i = 0; i < paper_count; ++i) {
      if (paper[i].level == row.level) ref = &paper[i];
    }
    if (ref != nullptr) {
      std::printf("%5d | %9.2f %9.2f %5.1f %5.1f | %9.2f %9.2f %5.1f %5.1f | %s\n", row.level,
                  row.st, row.ct, row.m, row.su, ref->st, ref->ct, ref->m, ref->su,
                  ref->estimated ? "paper row reconstructed" : "");
    } else {
      std::printf("%5d | %9.2f %9.2f %5.1f %5.1f |\n", row.level, row.st, row.ct, row.m, row.su);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int runs = 5;
  std::uint64_t seed = 2004;
  int max_level = 15;
  std::string report_path;
  std::string trace_path;
  namespace cli = mg::examples::cli;
  cli::Table("table1", {cli::count("--runs", runs, {1}, "runs averaged per row"),
                        cli::count("--seed", seed, {}, "seed of the simulated runs"),
                        cli::count("--max-level", max_level, cli::kRoot2Levels, "last level"),
                        cli::text("--report", report_path, "PATH", "write a JSON run report"),
                        cli::text("--trace", trace_path, "PATH", "write the schedule as a trace")})
      .parse_or_exit(argc, argv);

  const mg::cluster::AthlonCostModel cost;
  mg::cluster::SimConfig config;
  config.runs = runs;
  config.seed = seed;
  mg::obs::SpanTracer sim_tracer;
  if (!trace_path.empty()) {
    sim_tracer.enable();  // explicit-time records; the sim supplies virtual times
    config.tracer = &sim_tracer;
  }

  std::printf("Cluster: %zu hosts (paper mix: 24x1200 + 5x1400 + 3x1466 MHz), 100 Mbps switched\n",
              config.cluster.size());
  std::printf("Cost model: %.3g s/cell @1200 MHz, aspect kappa %.3g, tol factor %.3g\n",
              cost.params().cost_per_cell, cost.params().aspect_kappa,
              cost.params().tol_factor_1e4);

  const auto rows3 = mg::cluster::simulate_table(2, max_level, 1e-3, cost, config);
  print_block("1.0e-3", rows3, mg::bench::kPaperTable1e3.data(), mg::bench::kPaperTable1e3.size());

  const auto rows4 = mg::cluster::simulate_table(2, max_level, 1e-4, cost, config);
  print_block("1.0e-4", rows4, mg::bench::kPaperTable1e4.data(), mg::bench::kPaperTable1e4.size());

  if (!report_path.empty()) {
    mg::obs::RunReport report("table1");
    report.config().begin_object();
    report.config().kv("root", 2).kv("max_level", max_level).kv("runs", runs);
    report.config().kv("seed", static_cast<std::uint64_t>(seed));
    report.config().kv("hosts", config.cluster.size());
    report.config().end_object();
    report.derived().begin_object();
    report.derived().key("tables").begin_array();
    for (const auto* block : {&rows3, &rows4}) {
      report.derived().begin_object();
      report.derived().kv("tol", block == &rows3 ? 1e-3 : 1e-4);
      report.derived().key("rows");
      mg::cluster::append_table_json(report.derived(), *block);
      report.derived().end_object();
    }
    report.derived().end_array();
    report.derived().end_object();
    if (!report.write(report_path)) return 1;
    std::printf("\nreport written to %s\n", report_path.c_str());
  }

  if (!trace_path.empty()) {
    if (!mg::obs::write_text_file(trace_path, sim_tracer.chrome_trace_json())) return 1;
    std::printf("chrome trace (%zu spans) written to %s\n", sim_tracer.size(),
                trace_path.c_str());
  }

  return 0;
}
