// Reproduces the chronological output of §6: the labelled Welcome/Bye
// messages of a distributed run ("with such a label in front of an actual
// message, we always know who is printing, what, where and when"), the task
// composition (mainprog.mlink) and host mapping (CONFIG) stages, and the
// ebb & flow summary.
//
// The run itself uses the real threaded runtime at a small level with the
// paper's MLINK/CONFIG parameters; the big-level ebb & flow chart comes
// from the cluster simulator.
#include <cstdio>

#include "cli.hpp"
#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "core/concurrent_solver.hpp"
#include "trace/ebb_flow.hpp"
#include "trace/trace_log.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  int level = 2;
  namespace cli = examples::cli;
  cli::Table("distributed_trace", {cli::count("level", level, cli::kRoot2Levels, "run level")})
      .parse_or_exit(argc, argv);

  // Task composition stage (mainprog.mlink) and runtime configuration stage
  // (the CONFIG input file) — §6.
  std::printf("# mainprog.mlink equivalent: {task * {perpetual} {load 1} "
              "{weight Master 1} {weight Worker 1}}\n");
  const iwim::HostMap hosts = iwim::HostMap::paper_hosts();
  std::printf("# CONFIG equivalent: startup %s + %zu worker hosts\n\n",
              hosts.startup_host.c_str(), hosts.worker_hosts.size());

  trace::TraceLog log;
  transport::ProgramConfig program;
  program.root = 2;
  program.level = level;
  program.le_tol = 1e-3;

  mw::ConcurrentOptions options;
  options.trace = &log;
  options.hosts = hosts;
  const auto result = mw::solve_concurrent(program, options);

  std::printf("%s\n", log.render().c_str());
  std::printf("run used %zu workers across %zu forked task instances; peak %zu busy machines\n\n",
              result.protocol.workers_created, result.tasks.tasks_created,
              result.tasks.peak_busy);

  // The level-15 ebb & flow (Figure 1) from the cluster simulator.
  const cluster::AthlonCostModel cost;
  const cluster::SimConfig sim_config;
  const auto run = cluster::simulate_run(2, 15, 1e-3, cost, sim_config, 7);
  std::printf("simulated level-15 distributed run: %.0f s, peak %d machines, weighted avg %.1f\n",
              run.concurrent_seconds, run.peak_machines, run.weighted_machines);
  std::printf("%s", trace::render_ascii_chart(run.ebb_flow, 72, 12).c_str());
  return 0;
}
