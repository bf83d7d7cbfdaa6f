// The restructured ("modernized") application of §5: the sequential
// sparse-grid program re-expressed as a master/worker concurrent application
// over the generic ProtocolMW coordinator.
//
// The master performs everything the sequential main() did except the
// subsolve calls, which it delegates — one grid per worker — to a pool of
// workers created by the coordinator.  §6 requires the output to be
// "exactly the same as in the sequential version"; tests assert bit-equality
// with transport::solve_sequential.
#pragma once

#include <cstddef>
#include <vector>

#include "core/protocol.hpp"
#include "manifold/task.hpp"
#include "transport/seq_solver.hpp"
#include "trace/trace_log.hpp"

namespace mg::net {
class RemoteEndpoint;
}

namespace mg::mw {

/// Work unit the master writes to its output port: which grid to subsolve.
struct WorkItem {
  std::size_t index;  ///< position in the combination-term visit order
  int root;
  int lx;
  int ly;
  transport::SubsolveConfig config;
};

/// Result unit the worker writes back through the KK stream.
struct ResultItem {
  std::size_t index;
  std::vector<double> node_data;
  ros::Ros2Stats stats;
  double elapsed_seconds;
};

/// Executes one work unit — the §3 subsolve on the item's grid.  The single
/// compute kernel behind every substrate: the threaded pool workers, the TCP
/// worker processes (run_subsolve_worker), and the solve service's fleet
/// lanes all call this, which is what makes their outputs interchangeable
/// bit for bit.
ResultItem execute_work_item(const WorkItem& item);

/// How computed data travels (§4.1): in the paper's protocol "the master
/// process passes all data to and from the workers"; the alternative it
/// mentions (but never tried) lets workers access the global data structure
/// directly — implemented here for the ablation bench.
enum class DataPath {
  ThroughMaster,  ///< paper's protocol: data via master's ports
  SharedGlobal,   ///< §4.1 alternative: workers write the global structure
};

const char* to_string(DataPath p);

/// Dispatch order for terms [first, first+count): indices sorted by
/// descending subsolve_payload_bytes (the marshalled size — the paper's
/// MLINK `weight`/`load` notion), with the original index as a deterministic
/// tie-break.  Payload is not subsolve cost: within a family it grows with
/// anisotropy, so the wide and tall grids go first and the square grid —
/// the costliest to subsolve, with the widest band — comes mid-pack, last of
/// the upper family and ahead of the lower one.  Every pool dispatches in
/// this order; results are keyed by term index, so the combined output does
/// not depend on it.
std::vector<std::size_t> lpt_order(const std::vector<grid::CombinationTerm>& terms,
                                   std::size_t first, std::size_t count);

struct ConcurrentOptions {
  bool pool_per_family = false;  ///< one pool per lm family instead of one pool total
  DataPath data_path = DataPath::ThroughMaster;
  iwim::TaskCompositionSpec tasks = iwim::TaskCompositionSpec::paper_distributed();
  iwim::HostMap hosts = iwim::HostMap::generated(32);
  trace::TraceLog* trace = nullptr;  ///< optional §6-style trace, not owned
  /// Seeded fault injection into the threads pool's worker incarnations
  /// (crash / hang / corrupt probabilities; see FaultPlan).  solve_concurrent
  /// throws std::invalid_argument for a plan it cannot honour: worker faults
  /// with `remote` set (remote workers take frame faults from
  /// RemoteEndpointConfig::faults), and hangs with no retry.task_deadline to
  /// reap them.
  fault::FaultPlanConfig faults;
  /// How the pool supervises its workers: crashed/hung workers are respawned
  /// with backoff and their grids re-dispatched; once the attempt cap or
  /// respawn budget is exhausted the master recomputes the abandoned grid
  /// locally (ThroughMaster), so the result stays bit-identical to the
  /// sequential program even in a degraded pool.
  fault::RetryPolicy retry;
  /// Overall wall-clock deadline for the whole run; 0 = none.  On expiry the
  /// run unwinds with ProtocolStats.timed_out instead of hanging.
  std::chrono::milliseconds overall_deadline{0};
  /// Seeded spot-instance churn (join/leave/crash events) replayed against
  /// the pool (see RunOptions::churn).  Results stay bit-identical.
  std::optional<fleet::ChurnPlanConfig> churn;
  /// Third substrate: when set, pool workers are remote proxies that marshal
  /// each work unit over this TCP endpoint to a worker process instead of
  /// computing in-thread (ThroughMaster only).  Failed round trips surface
  /// as worker crashes, so the pool supervises remote workers exactly like
  /// local ones.  Not owned; must outlive the run.
  net::RemoteEndpoint* remote = nullptr;
};

struct ConcurrentResult {
  transport::SolveResult solve;
  /// protocol.faults carries the full fault ledger: injections performed by
  /// the workers plus the coordinator's recovery actions.
  ProtocolStats protocol;
  iwim::TaskStats tasks;
};

/// Runs the concurrent version.  Deterministic result (identical to
/// solve_sequential) for a fixed program config.
ConcurrentResult solve_concurrent(const transport::ProgramConfig& program,
                                  const ConcurrentOptions& options = {});

}  // namespace mg::mw
