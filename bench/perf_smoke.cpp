// Perf smoke for the subsolve hot path: times prepare_stage on its three
// cache paths (rebuild / refresh / hit), runs subsolve per solver kind and
// level with the metrics registry capturing the assemble/factor/solve
// decomposition, and compares warm- vs cold-started Krylov iteration
// counts.  Each level L of the subsolve table has the square G(2;L,L) and
// the mirror pair G(2;L,0) / G(2;0,L); the banded solver factors along a
// grid's short axis, so a mirror pair should cost the same per step (the
// "mirror_pair" object compares the largest one; the two grids take
// different step counts, so it compares seconds per accepted step).  Emits
// one machine-readable report (see src/obs/report.hpp) so the hot-path
// numbers in README/DESIGN are regenerable artifacts.
//
// Usage: perf_smoke [--out=PATH] [--max-level L | --level=L] [--reps N]
//                   [--label=S] [--timestamp=S]
//                   [--kernels=scalar|tiled] [--inner-threads=N]
//
// --kernels/--inner-threads select the kernel policy for the per-level
// subsolve sweep (DESIGN.md §14); the dedicated kernel-policy sweep section
// additionally times scalar vs tiled (and 1 vs N inner threads) on the
// largest grid so one entry captures the within-grid-parallelism win.
//
// The default output path is BENCH_subsolve.json in the working directory;
// the committed copy at the repo root is this tool's output on the dev
// container.  The file is a bench *trajectory* (bench/bench_trajectory.hpp):
// each run appends one {label, timestamp, report} entry — pass
// --label="$(git describe --always --dirty)" and a --timestamp so the entry
// says which tree produced it.  Timings are wall-clock and machine-
// dependent; the report is a smoke record, not a calibrated benchmark.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_trajectory.hpp"
#include "grid/grid2d.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "support/stopwatch.hpp"
#include "transport/subsolve.hpp"
#include "transport/system.hpp"

namespace {

using namespace mg;

double prepare_seconds(transport::TransportSystem& system, int reps, bool alternate) {
  const linalg::Vec u(system.dimension(), 0.5);
  support::Stopwatch clock;
  for (int i = 0; i < reps; ++i) {
    const double gamma_h = alternate && (i % 2 != 0) ? 0.02 : 0.01;
    auto solver = system.prepare_stage(0.0, u, gamma_h);
    static_cast<void>(solver);
  }
  return clock.elapsed_seconds() / reps;
}

transport::TransportSystem make_system(const grid::Grid2D& g, bool cache_stage) {
  transport::SystemOptions options;
  options.cache_stage = cache_stage;
  return transport::TransportSystem(g, transport::TransportProblem{}, options);
}

std::uint64_t bicgstab_iterations(const grid::Grid2D& g, bool warm_start) {
  transport::SubsolveConfig config;
  config.system.solver = transport::StageSolverKind::BiCgStabIlu0;
  config.system.warm_start = warm_start;
  obs::registry().reset();
  transport::subsolve(g, config);
  return obs::registry().snapshot().counter_or("linalg.bicgstab_iterations");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_subsolve.json";
  std::string label = "dev";
  std::string timestamp;
  int max_level = 3;
  int reps = 200;
  linalg::KernelPolicy kernels = linalg::KernelPolicy::Scalar;
  std::uint32_t inner_threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--label=", 8) == 0) label = argv[i] + 8;
    if (std::strncmp(argv[i], "--timestamp=", 12) == 0) timestamp = argv[i] + 12;
    if (std::strncmp(argv[i], "--level=", 8) == 0) max_level = std::atoi(argv[i] + 8);
    if (std::strncmp(argv[i], "--kernels=", 10) == 0 &&
        !linalg::parse_kernel_policy(argv[i] + 10, kernels)) {
      std::fprintf(stderr, "perf_smoke: bad --kernels '%s' (want scalar or tiled)\n",
                   argv[i] + 10);
      return 2;
    }
    if (std::strncmp(argv[i], "--inner-threads=", 16) == 0) {
      inner_threads = static_cast<std::uint32_t>(std::atoi(argv[i] + 16));
      if (inner_threads < 1) inner_threads = 1;
    }
    if (std::strcmp(argv[i], "--max-level") == 0 && i + 1 < argc) max_level = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) reps = std::atoi(argv[++i]);
  }
  if (timestamp.empty()) timestamp = bench::default_timestamp();

  obs::RunReport report("perf_smoke");
  report.config().begin_object();
  report.config().kv("root", 2).kv("max_level", max_level).kv("reps", reps);
  report.config().kv("kernels", linalg::to_string(kernels));
  report.config().kv("inner_threads", static_cast<std::int64_t>(inner_threads));
  report.config().end_object();
  report.derived().begin_object();

  // --- prepare_stage: rebuild-every-step vs refresh vs hit ----------------------
  {
    const grid::Grid2D g(2, 4, 4);
    auto rebuild_system = make_system(g, /*cache_stage=*/false);
    auto cached_system = make_system(g, /*cache_stage=*/true);
    const double rebuild = prepare_seconds(rebuild_system, reps, /*alternate=*/false);
    const double refresh = prepare_seconds(cached_system, reps, /*alternate=*/true);
    const double hit = prepare_seconds(cached_system, reps, /*alternate=*/false);
    const double hit_speedup = hit > 0.0 ? rebuild / hit : 0.0;
    const double refresh_speedup = refresh > 0.0 ? rebuild / refresh : 0.0;
    std::printf("prepare_stage on G(2;4,4), banded LU, %d reps:\n", reps);
    std::printf("  rebuild %.3g us  refresh %.3g us (%.1fx)  hit %.3g us (%.1fx)\n",
                rebuild * 1e6, refresh * 1e6, refresh_speedup, hit * 1e6, hit_speedup);
    report.derived().key("prepare_stage").begin_object();
    report.derived().kv("grid", "G(2;4,4)").kv("solver", "banded-lu");
    report.derived().kv("rebuild_seconds", rebuild);
    report.derived().kv("refresh_seconds", refresh);
    report.derived().kv("hit_seconds", hit);
    report.derived().kv("refresh_speedup", refresh_speedup);
    report.derived().kv("hit_speedup", hit_speedup);
    report.derived().end_object();
  }

  // --- warm vs cold Krylov starts ----------------------------------------------
  {
    const grid::Grid2D g(2, 3, 3);
    const std::uint64_t cold = bicgstab_iterations(g, /*warm_start=*/false);
    const std::uint64_t warm = bicgstab_iterations(g, /*warm_start=*/true);
    std::printf("bicgstab iterations on G(2;3,3), ilu0: cold %llu warm %llu\n",
                static_cast<unsigned long long>(cold), static_cast<unsigned long long>(warm));
    report.derived().key("warm_start").begin_object();
    report.derived().kv("grid", "G(2;3,3)").kv("solver", "bicgstab+ilu0");
    report.derived().kv("cold_iterations", cold).kv("warm_iterations", warm);
    report.derived().end_object();
  }

  // --- subsolve per solver kind and level, with the stage decomposition ---------
  const transport::StageSolverKind kinds[] = {transport::StageSolverKind::BandedLU,
                                              transport::StageSolverKind::BiCgStabIlu0,
                                              transport::StageSolverKind::BiCgStabJacobi};
  // Seconds per accepted step of the banded-LU subsolves of G(2;max_level,0)
  // and of its mirror G(2;0,max_level).
  double mirror_wide = 0.0;
  double mirror_tall = 0.0;
  report.derived().key("subsolve").begin_array();
  for (const auto kind : kinds) {
    for (int l = 1; l <= max_level; ++l) {
      for (const grid::Grid2D g : {grid::Grid2D(2, l, l), grid::Grid2D(2, l, 0),
                                   grid::Grid2D(2, 0, l)}) {
        transport::SubsolveConfig config;
        config.system.solver = kind;
        config.system.kernel_policy = kernels;
        config.system.inner_threads = inner_threads;
        obs::registry().reset();
        const auto r = transport::subsolve(g, config);
        const auto snap = obs::registry().snapshot();
        const double hit_rate = snap.counter_ratio(
            "linalg.stage_cache.hits",
            {"linalg.stage_cache.hits", "linalg.stage_cache.misses",
             "linalg.stage_cache.refreshes"});
        std::printf("subsolve %-9s %-15s %8.3f ms  steps %4llu  hit rate %.2f\n",
                    g.name().c_str(), to_string(kind), r.elapsed_seconds * 1e3,
                    static_cast<unsigned long long>(r.stats.accepted), hit_rate);
        if (kind == transport::StageSolverKind::BandedLU && l == max_level &&
            r.stats.accepted > 0) {
          const double per_step = r.elapsed_seconds / static_cast<double>(r.stats.accepted);
          if (g.ly() == 0) mirror_wide = per_step;
          if (g.lx() == 0) mirror_tall = per_step;
        }
        report.derived().begin_object();
        report.derived().kv("grid", g.name());
        report.derived().kv("solver", to_string(kind));
        report.derived().kv("kernels", linalg::to_string(kernels));
        report.derived().kv("inner_threads", static_cast<std::int64_t>(inner_threads));
        report.derived().kv("elapsed_seconds", r.elapsed_seconds);
        report.derived().kv("accepted_steps", r.stats.accepted);
        report.derived().kv("stage_preparations", r.stats.stage_preparations);
        report.derived().kv("assemble_seconds",
                            snap.histograms.count("linalg.stage_assemble_seconds")
                                ? snap.histograms.at("linalg.stage_assemble_seconds").sum
                                : 0.0);
        report.derived().kv("factor_seconds",
                            snap.histograms.count("linalg.stage_factor_seconds")
                                ? snap.histograms.at("linalg.stage_factor_seconds").sum
                                : 0.0);
        report.derived().kv("solve_seconds",
                            snap.histograms.count("linalg.stage_solve_seconds")
                                ? snap.histograms.at("linalg.stage_solve_seconds").sum
                                : 0.0);
        report.derived().kv("cache_hits", snap.counter_or("linalg.stage_cache.hits"));
        report.derived().kv("cache_misses", snap.counter_or("linalg.stage_cache.misses"));
        report.derived().kv("cache_refreshes", snap.counter_or("linalg.stage_cache.refreshes"));
        report.derived().kv("cache_hit_rate", hit_rate);
        report.derived().kv("bicgstab_iterations", snap.counter_or("linalg.bicgstab_iterations"));
        report.derived().end_object();
      }
    }
  }
  report.derived().end_array();
  {
    const double ratio = mirror_tall > 0.0 ? mirror_wide / mirror_tall : 0.0;
    std::printf("mirror pair G(2;%d,0) / G(2;0,%d), banded-lu, per accepted step: %.2fx\n",
                max_level, max_level, ratio);
    report.derived().key("mirror_pair").begin_object();
    report.derived().kv("solver", "banded-lu");
    report.derived().kv("wide_grid", grid::Grid2D(2, max_level, 0).name());
    report.derived().kv("tall_grid", grid::Grid2D(2, 0, max_level).name());
    report.derived().kv("wide_seconds_per_step", mirror_wide);
    report.derived().kv("tall_seconds_per_step", mirror_tall);
    report.derived().kv("wide_over_tall", ratio);
    report.derived().end_object();
  }

  // --- kernel-policy sweep: scalar vs tiled, 1 vs N inner threads ---------------
  // Timed on the largest grid of the sweep (the one that serializes the
  // combination step), banded LU — the solver whose factorisation dominates.
  {
    const grid::Grid2D g(2, max_level, max_level);
    struct Combo {
      linalg::KernelPolicy policy;
      std::uint32_t threads;
    };
    std::vector<Combo> combos = {{linalg::KernelPolicy::Scalar, 1},
                                 {linalg::KernelPolicy::Tiled, 1}};
    if (inner_threads > 1) {
      combos.push_back({linalg::KernelPolicy::Scalar, inner_threads});
      combos.push_back({linalg::KernelPolicy::Tiled, inner_threads});
    }
    double scalar_1 = 0.0;
    double best_tiled = 0.0;
    report.derived().key("kernel_sweep").begin_array();
    for (const auto& combo : combos) {
      transport::SubsolveConfig config;
      config.system.solver = transport::StageSolverKind::BandedLU;
      config.system.kernel_policy = combo.policy;
      config.system.inner_threads = combo.threads;
      obs::registry().reset();
      const auto r = transport::subsolve(g, config);
      std::printf("kernel sweep G(2;%d,%d) banded-lu %-6s x%-2u %8.3f ms\n", max_level,
                  max_level, linalg::to_string(combo.policy), combo.threads,
                  r.elapsed_seconds * 1e3);
      if (combo.policy == linalg::KernelPolicy::Scalar && combo.threads == 1) {
        scalar_1 = r.elapsed_seconds;
      }
      if (combo.policy == linalg::KernelPolicy::Tiled) {
        best_tiled = best_tiled == 0.0 ? r.elapsed_seconds
                                       : std::min(best_tiled, r.elapsed_seconds);
      }
      report.derived().begin_object();
      report.derived().kv("grid", "G(2;" + std::to_string(max_level) + "," +
                                      std::to_string(max_level) + ")");
      report.derived().kv("solver", "banded-lu");
      report.derived().kv("kernels", linalg::to_string(combo.policy));
      report.derived().kv("inner_threads", static_cast<std::int64_t>(combo.threads));
      report.derived().kv("elapsed_seconds", r.elapsed_seconds);
      report.derived().end_object();
    }
    report.derived().end_array();
    const double tiled_speedup = best_tiled > 0.0 ? scalar_1 / best_tiled : 0.0;
    std::printf("kernel sweep: tiled speedup %.2fx over scalar\n", tiled_speedup);
    report.derived().key("kernel_speedup").begin_object();
    report.derived().kv("scalar_seconds", scalar_1);
    report.derived().kv("tiled_seconds", best_tiled);
    report.derived().kv("tiled_speedup", tiled_speedup);
    report.derived().end_object();
  }

  report.derived().end_object();

  if (!bench::append_bench_entry(out_path, label, timestamp,
                                 report.json(obs::registry().snapshot()))) {
    std::fprintf(stderr, "perf_smoke: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("entry '%s' appended to %s\n", label.c_str(), out_path.c_str());
  return 0;
}
