// The generic master/worker coordination protocol — the paper's primary
// contribution (§4, protocolMW.m).
//
// "In MANIFOLD, we can easily realize this master/worker protocol in a
// generic way, where the master and the worker are parameters of the
// protocol. ... For the protocol, it is irrelevant to know what kind of
// computation is performed in the master or the worker."
//
// protocol_mw() renders the manner ProtocolMW (lines 54-64) and
// create_worker_pool() the manner Create_Worker_Pool (lines 12-51).  They
// run inside a coordinator process's body; the master and the worker factory
// are parameters, exactly as in the MANIFOLD source.  Comments cite the
// corresponding protocolMW.m lines.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "fault/fault_plan.hpp"
#include "fleet/churn.hpp"
#include "manifold/process.hpp"
#include "manifold/runtime.hpp"

namespace mg::mw {

/// The extern events of the behaviour interface (§4.3 step 1), plus the
/// fault-tolerance extension: `crash_worker` is raised by a worker that dies
/// *without* producing its result (an exception, an injected crash, or a
/// result discarded at the transport boundary), so the coordinator can
/// distinguish lost work from a normal `death_worker` completion.
struct ProtocolEvents {
  static constexpr const char* create_pool = "create_pool";
  static constexpr const char* create_worker = "create_worker";
  static constexpr const char* rendezvous = "rendezvous";
  static constexpr const char* a_rendezvous = "a_rendezvous";
  static constexpr const char* finished = "finished";
  static constexpr const char* death_worker = "death_worker";
  static constexpr const char* crash_worker = "crash_worker";
};

/// Unit the coordinator deposits into the master's dataport in place of a
/// result it gave up on (attempt cap or respawn budget exhausted): the
/// master's collect loop keeps its count, sees which slot degraded, and can
/// fall back to computing the work itself.
struct WorkAbandoned {
  std::size_t pool_slot = 0;  ///< creation order within the pool (0-based)
  std::size_t attempts = 0;   ///< dispatches consumed before giving up
};

/// Creates one (not yet activated) worker process.  The paper passes the
/// Worker manifold as a parameter; we pass its factory.
using WorkerFactory =
    std::function<std::shared_ptr<iwim::Process>(iwim::Runtime&, std::size_t index)>;

struct ProtocolStats {
  std::size_t pools_created = 0;
  std::size_t workers_created = 0;  ///< master-requested workers (respawns excluded)
  /// Total wall time the coordinator spent at rendezvous counting
  /// death_worker events — pure coordination-layer overhead (§7's third
  /// category).
  double rendezvous_wait_seconds = 0.0;
  /// Fault-tolerance ledger (crashes handled, retries, slots abandoned);
  /// all-zero when nothing failed.
  fault::FaultCounters faults;
  /// Churn events applied (joins, leaves, crashes); all-zero without a
  /// churn plan.  A unit a leave or crash took away is re-leased as a retry
  /// in `faults`.
  fleet::FleetCounters fleet;
  /// run_main_program's overall deadline expired before the protocol ended.
  bool timed_out = false;
};

/// What one Create_Worker_Pool invocation did.
struct PoolStats {
  std::size_t workers_created = 0;
  double rendezvous_wait_seconds = 0.0;
  /// Crash events and timeouts seen here, plus the pool's LeaseLedger counts.
  fault::FaultCounters faults;
  /// Churn events the pool applied.
  fleet::FleetCounters fleet;
  /// The master terminated mid-pool; the pool aborted instead of waiting for
  /// deaths that can no longer be acknowledged.
  bool master_terminated = false;
};

/// The manner ProtocolMW (protocolMW.m lines 54-64).  Call from a
/// coordinator process body; returns when the master raises `finished` (the
/// `halt` on line 63) or terminates.  Each create_pool runs
/// create_worker_pool under `retry` and `churn`.
ProtocolStats protocol_mw(iwim::ProcessContext& coordinator,
                          const std::shared_ptr<iwim::Process>& master, WorkerFactory factory,
                          const fault::RetryPolicy& retry, const fleet::ChurnPlan& churn);

/// The manner Create_Worker_Pool (protocolMW.m lines 12-51).  Creates
/// workers on demand, wires their streams, counts death_worker events at the
/// rendezvous and raises a_rendezvous.  Returns the number of workers the
/// pool created and the time spent waiting at the rendezvous.
///
/// Every worker slot is supervised.  A worker that raises `crash_worker`
/// (see make_worker_factory) or outlives `retry.task_deadline` loses its
/// lease, and the pool's fault::LeaseLedger either re-dispatches the unit to
/// a respawned worker after a backoff, or abandons the slot: the master then
/// receives a WorkAbandoned unit instead of the result.  A master that
/// terminates mid-pool ends the pool.  Without a fault the pool raises the
/// paper's events and traces its MES lines, nothing more.  Replay relies on
/// the §4.3 master behaviour (one send_work per create_worker): the
/// coordinator taps the master's output port for a copy of every work unit.
///
/// The pool also replays the `churn` plan, a seeded spot-instance
/// schedule against itself: Leave kills a running worker and re-leases its
/// unit immediately (no backoff), Crash kills one and routes it through the
/// normal crash/retry path, Join is recorded (the threads pool cannot grow
/// beyond the master's create_worker requests; respawned incarnations are
/// its joins).  Results stay bit-identical — the re-leased unit is replayed
/// from the tap exactly once.
/// `worker_counter` numbers worker *incarnations*: respawned replacements
/// consume fresh values, which is what makes seeded fault injection a pure
/// function of the counter.
PoolStats create_worker_pool(iwim::ProcessContext& coordinator, iwim::Process& master,
                             const WorkerFactory& factory, std::size_t& worker_counter,
                             const fault::RetryPolicy& retry, const fleet::ChurnPlan& churn);

struct RunOptions {
  /// How every pool supervises its workers (see create_worker_pool).
  fault::RetryPolicy retry;
  /// Overall wall-clock deadline for the whole main program; 0 = none.  On
  /// expiry every blocked coordinator/master wait is woken with
  /// ShutdownSignal and the returned stats carry timed_out=true — an error
  /// status instead of a hang when the master neither finishes nor dies.
  std::chrono::milliseconds overall_deadline{0};
  /// Seeded spot-instance churn applied to every pool.  Event offsets are
  /// wall seconds from each pool's start.  Each leave or crash costs its
  /// unit one attempt, so the plan raises retry.max_attempts to at least
  /// 1 + leaves + crashes.
  std::optional<fleet::ChurnPlanConfig> churn;
};

/// Builds and runs the whole §5 main program:
///
///   manifold Main(process argv) {
///     begin: ProtocolMW(Master(argv), Worker).
///   }
///
/// Activates the master, runs a "Main" coordinator executing protocol_mw,
/// and blocks until both have terminated.  Returns the protocol statistics.
ProtocolStats run_main_program(iwim::Runtime& runtime,
                               const std::shared_ptr<iwim::Process>& master,
                               WorkerFactory factory, RunOptions options = {});

}  // namespace mg::mw
