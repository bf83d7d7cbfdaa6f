// Virtual-time simulation of the distributed master/worker run (§6-§7).
//
// Executes the exact event sequence of ProtocolMW — create_pool, per-worker
// create_worker / reference / data marshalling, compute, result return,
// death_worker, rendezvous, prolongation — on a simulated cluster (hosts
// with clock speeds, a 100 Mbps network, task-instance spawn costs,
// perpetual-task reuse via the same TaskManager policy the real runtime
// uses), and reports the quantities of Table 1: sequential time st,
// concurrent time ct, time-weighted machine count m, speedup su, plus the
// ebb & flow machine series of Figure 1.
//
// Timing structure (calibrated against Table 1; see DESIGN.md §6):
//  * startup_s           — application boot (MLINK tables, CONFIG, master task)
//  * create_new_task_s   — serial coordinator/CONFIG cost to fork a task
//                          instance on a fresh machine (gates the master)
//  * reuse_task_s        — serial cost to hand a worker to an idle perpetual task
//  * worker_setup_s      — per-worker on-host setup, parallel across hosts
//  * event_latency_s     — one protocol event hop
//  * result_handling_s   — master-side bookkeeping per collected result
//  * death_tail_s        — worker lifetime after its result until "Bye"
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cost_model.hpp"
#include "cluster/host.hpp"
#include "cluster/network.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/churn.hpp"
#include "grid/grid2d.hpp"
#include "obs/span.hpp"
#include "trace/ebb_flow.hpp"

namespace mg::cluster {

struct OverheadModel {
  double startup_s = 5.0;
  double create_new_task_s = 1.5;
  double reuse_task_s = 0.1;
  double worker_setup_s = 2.2;
  double event_latency_s = 0.004;
  double result_handling_s = 0.05;
  double death_tail_s = 0.8;
};

struct SimConfig {
  ClusterSpec cluster = ClusterSpec::paper();
  NetworkModel network;
  OverheadModel overhead;
  bool pool_per_family = false;   ///< one pool per lm family (ablation)
  bool perpetual_tasks = true;    ///< MLINK {perpetual} (ablation when false)
  double noise_amplitude = 0.08;  ///< multi-user slowdown, U[0, amp] extra
  /// §7: "some users ... run their own job(s) at night, run screen savers or
  /// have runaway Netscape jobs."  With this probability a host carries a
  /// background job for the whole run, dividing its effective speed by
  /// `background_slowdown`.  Off by default; the ablation bench turns it on.
  double background_job_probability = 0.0;
  double background_slowdown = 2.0;
  int runs = 5;                   ///< the paper's five-run averaging
  std::uint64_t seed = 2004;
  /// Optional span sink (not owned).  The simulator records its virtual-time
  /// schedule — spawn/marshal/compute/result intervals — as spans, in the
  /// same format the real threaded runtime emits against the wall clock.
  obs::SpanTracer* tracer = nullptr;
  /// Seeded fault injection (simulator-side faults: host_crash, net_drop,
  /// net_slow).  The fault stream is independent of the timing-noise RNG, so
  /// an all-zero config leaves the schedule bit-identical to a fault-free
  /// build.  Host crashes are silent: the master detects them at a per-task
  /// deadline derived from the cost model (RetryPolicy::deadline_seconds),
  /// then asks the run's fault::LeaseLedger — the rule the threaded pool
  /// applies — whether to re-dispatch; abandoned slots degrade to a local
  /// recompute on the start-up machine.
  fault::FaultPlanConfig faults;
  /// Recovery contract mirrored from the threaded runtime (one struct, two
  /// execution paths).
  fault::RetryPolicy retry;
};

/// Per-worker schedule detail of one simulated run.
struct WorkerTimeline {
  std::size_t index = 0;
  grid::Grid2D grid{2, 0, 0};
  std::string host;
  std::uint64_t task_id = 0;
  bool new_task = false;
  double requested = 0;      ///< master raises create_worker
  double ready = 0;          ///< reference received by master
  double input_done = 0;     ///< work data fully marshalled to the worker
  double compute_start = 0;
  double compute_end = 0;
  double result_done = 0;    ///< result fully transferred to the master
  double death = 0;          ///< death_worker raised ("Bye")
};

/// Virtual busy/idle split of one simulated workstation over a run.
struct HostUsage {
  std::string host;
  double busy_seconds = 0;  ///< compute booked on this host's CPU timeline
  double idle_seconds = 0;  ///< concurrent_seconds - busy_seconds
};

struct SimRunResult {
  double sequential_seconds = 0;  ///< model st on the start-up machine
  double concurrent_seconds = 0;  ///< model ct of the distributed run
  trace::EbbFlowSeries ebb_flow;  ///< machines in use vs time (Figure 1)
  double weighted_machines = 0;   ///< Table 1's m
  int peak_machines = 0;
  std::size_t tasks_spawned = 0;  ///< task instances forked over the run
  std::size_t network_bytes = 0;  ///< payload bytes over the simulated network
  std::vector<HostUsage> host_usage;  ///< per-host virtual busy/idle
  std::vector<WorkerTimeline> workers;
  /// Injection + recovery ledger of this run (host crashes, dropped/slowed
  /// transfers, retries, abandoned slots).
  fault::FaultCounters faults;
};

/// One row of Table 1.
struct TableRow {
  int level = 0;
  double tol = 0;
  double st = 0;
  double ct = 0;
  double m = 0;
  double su = 0;
};

/// Simulates one run (deterministic in `seed`).
SimRunResult simulate_run(int root, int level, double tol, const CostModel& cost,
                          const SimConfig& config, std::uint64_t seed);

/// Result of one elastic-fleet run under a churn plan (simulate_churn_run).
struct ChurnSimResult {
  double concurrent_seconds = 0;   ///< virtual time to the last first result
  trace::EbbFlowSeries machines;   ///< fleet size vs time under churn (fig1)
  double weighted_machines = 0;
  int peak_machines = 0;
  std::size_t terms_total = 0;
  /// Term indices in completion order, units the master recomputed last.
  /// Every term appears exactly once no matter how much churn occurred —
  /// the simulator's analogue of the bit-identity invariant (the sim
  /// carries no solution payloads, so exactly-once completion *is* the
  /// result contract).
  std::vector<std::size_t> completion_order;
  fleet::FleetCounters fleet;
  /// Crash detections (timeouts) plus the run's LeaseLedger counters.
  fault::FaultCounters faults;
};

/// Elastic-fleet variant of the simulator, on the worker pool's model: one work
/// queue (heaviest grid first) that every idle host takes the head of,
/// while hosts join / leave / crash in virtual time per the seeded churn
/// plan.  A Leave or Crash takes the lowest-index busy host.  A Leave's
/// unit is lost at once; a Crash is silent, so its unit is lost only when
/// the cost-model deadline (RetryPolicy::deadline_seconds) detects it.  The
/// run's fault::LeaseLedger then puts the unit back at the head of the
/// queue after its wait, or abandons it to a local recompute on the
/// start-up machine after the last result.  Coarser than simulate_run (no
/// master-link or spawner contention — the fleet schedule is the object of
/// study) but driven by the same cost model.  Deterministic in
/// (config.seed, churn): timing noise is hashed per (term, attempt), so
/// event ordering cannot perturb it.
ChurnSimResult simulate_churn_run(int root, int level, double tol, const CostModel& cost,
                                  const SimConfig& config, const fleet::ChurnPlanConfig& churn);

/// Averages `config.runs` runs into one Table-1 row (su = mean st / mean ct).
TableRow simulate_table_row(int root, int level, double tol, const CostModel& cost,
                            const SimConfig& config);

/// Full table for levels [0, max_level] at one tolerance.
std::vector<TableRow> simulate_table(int root, int max_level, double tol, const CostModel& cost,
                                     const SimConfig& config);

}  // namespace mg::cluster
