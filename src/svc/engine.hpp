// SolveEngine — the multi-tenant execution core of the solve service.
//
// One engine owns one shared worker fleet (a fixed set of lane threads; each
// lane either subsolves in-process or leases a remote TCP worker through a
// RemoteEndpoint round trip) and multiplexes it across every admitted job
// via the FairScheduler.  The numerics are untouched: a lane executes the
// same WorkItem -> ResultItem kernel the batch solver uses, results are
// keyed by term index, and the final combination runs in term order — so
// each job's output is bit-identical to a standalone solve_sequential run
// of the same spec, no matter how tenancy interleaved its tasks.
//
// Per-job isolation:
//  * metrics: every job gets its own obs::Registry; its report JSON is
//    assembled from that registry alone, so concurrent tenants never bleed
//    into each other's numbers (global svc.* counters keep the fleet view).
//  * faults: a job-scoped fault spec seeds a private FaultPlan whose
//    ordinals are the job's own attempt counter — injections are a pure
//    function of the job, invisible to its neighbours.
//  * cancellation: drops the job's pending tasks immediately, aborts its
//    in-flight remote round trips via the lease's cancel hook, and never
//    touches another job's work.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fleet/churn.hpp"
#include "obs/counter_ledger.hpp"
#include "svc/job.hpp"
#include "svc/scheduler.hpp"

namespace mg::net {
class RemoteEndpoint;
}

namespace mg::svc {

/// Spec validation caps (a hostile SubmitJob must not allocate the moon).
inline constexpr int kMaxRoot = 6, kMaxLevel = 12;

struct EngineConfig {
  AdmissionConfig admission;
  /// Lane threads sharing the fleet.  With `remote` set this is the number
  /// of concurrently leased worker channels, not local compute threads.
  std::size_t lanes = 4;
  /// TCP fleet: lanes round-trip marshalled work units over this endpoint
  /// (not owned; must outlive the engine).  Null = subsolve in the lane.
  net::RemoteEndpoint* remote = nullptr;
  /// Re-dispatch policy for failed attempts (remote transport failures and
  /// job-scoped injected faults).  Each job applies it through its own
  /// fault::LeaseLedger, so the respawn budget caps the retries of one job,
  /// not of the engine: one tenant cannot spend another's budget.  Once the
  /// ledger abandons a term the lane computes it locally — graceful
  /// degradation, still bit-identical.
  fault::RetryPolicy retry;
};

/// Fleet-wide ledger (sum over jobs; per-job views live in the job reports).
struct EngineCounters {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t task_retries = 0;
  std::uint64_t faults_injected = 0;   ///< job-scoped crash/hang/corrupt
  std::uint64_t remote_fallbacks = 0;  ///< terms computed locally after lease failures
};

/// One row per EngineCounters field: registry mirror, StatsReport JSON key,
/// Prometheus family and HELP text.
inline constexpr obs::CounterRow<EngineCounters> kEngineCounterRows[] = {
    {&EngineCounters::submitted, "svc.jobs_submitted", "submitted", "svc_jobs_submitted",
     "SubmitJob requests seen."},
    {&EngineCounters::accepted, "svc.jobs_accepted", "accepted", "svc_jobs_accepted",
     "Jobs accepted."},
    {&EngineCounters::rejected, "svc.jobs_rejected", "rejected", "svc_jobs_rejected",
     "Jobs rejected (spec or admission)."},
    {&EngineCounters::completed, "svc.jobs_completed", "completed", "svc_jobs_completed",
     "Jobs finished Done."},
    {&EngineCounters::failed, "svc.jobs_failed", "failed", "svc_jobs_failed",
     "Jobs finished Failed."},
    {&EngineCounters::cancelled, "svc.jobs_cancelled", "cancelled", "svc_jobs_cancelled",
     "Jobs finished Cancelled."},
    {&EngineCounters::tasks_executed, "svc.tasks_executed", "tasks_executed",
     "svc_tasks_executed", "Tasks executed on the fleet."},
    {&EngineCounters::task_retries, "svc.task_retries", "task_retries", "svc_task_retries",
     "Task re-dispatches."},
    {&EngineCounters::faults_injected, "svc.faults_injected", "faults_injected",
     "svc_faults_injected", "Job-scoped injected faults."},
    {&EngineCounters::remote_fallbacks, "svc.remote_fallbacks", "remote_fallbacks",
     "svc_remote_fallbacks", "Terms computed locally after lease failures."},
};

class SolveEngine {
 public:
  explicit SolveEngine(EngineConfig config = {});
  ~SolveEngine();

  SolveEngine(const SolveEngine&) = delete;
  SolveEngine& operator=(const SolveEngine&) = delete;

  /// Validates + admits the job.  Rejections (bad spec, admission queue
  /// full) come back as a non-accepted ticket with the reason; nothing
  /// blocks.  Thread-safe.
  JobTicket submit(const JobSpec& spec);

  JobStatusInfo status(std::uint64_t id) const;
  /// A terminal job's payload (combined field, report) is delivered once:
  /// the first fetch moves it out and frees the job, keeping only its final
  /// status record, and later fetches come back ready with no nodes and an
  /// "already delivered" error.  status(), cancel() and wait_terminal() keep
  /// reading the status record.  Thread-safe.
  JobResultData result(std::uint64_t id);

  /// Requests cancellation: pending tasks are dropped now, in-flight ones
  /// drain (remote trips abort at the lease).  Returns the post-request
  /// status; terminal jobs are left untouched.
  JobStatusInfo cancel(std::uint64_t id);

  /// Blocks until the job reaches a terminal state; false on timeout or
  /// unknown id.
  bool wait_terminal(std::uint64_t id, std::chrono::milliseconds timeout);

  /// Jobs that have reached any terminal state since construction.
  std::size_t terminal_jobs() const;

  /// Elastic resize of the lane fleet: growing spawns new lane threads that
  /// start pulling tasks immediately (fleet joins); shrinking retires lanes
  /// as they next ask the scheduler for work — an executing task always
  /// finishes first (fleet leaves).  Returns the new target; a no-op after
  /// shutdown.  Thread-safe.
  std::size_t resize(std::size_t lanes);

  EngineCounters counters() const { return counters_.snapshot(); }
  SchedulerCounters scheduler_counters() const;
  /// Fleet ledger: lane joins/leaves from resize(), plus the RemoteEndpoint's
  /// channel joins/leaves/crashes/duplicates when lanes lease TCP workers.
  /// A lease lost with its channel fails back to the lane, whose attempt
  /// loop re-submits it (counted as task_retries).
  fleet::FleetCounters fleet_counters() const;

  // ---- live-stats probes (GetStats; see svc/stats.hpp) ----
  std::size_t lanes() const { return lane_target_.load(std::memory_order_relaxed); }
  /// Lanes currently executing a task (vs parked in next_task()).
  std::size_t busy_lanes() const { return busy_lanes_.load(std::memory_order_relaxed); }
  std::size_t running_jobs() const { return scheduler_.running_jobs(); }
  std::size_t queued_jobs() const { return scheduler_.queued_jobs(); }
  /// Status of every non-terminal job, in id order (the live tenant view).
  std::vector<JobStatusInfo> active_statuses() const;

  /// Stops the scheduler and joins the lanes; queued/running jobs finish as
  /// Failed("engine shut down").  Idempotent; also run by the destructor.
  void shutdown();

 private:
  struct Job;
  struct TermResult;

  void lane_main(std::size_t lane_index);
  /// Fills a status view; the job's mutex must be held.
  static JobStatusInfo status_locked(const Job& job);
  void execute_task(Job& job, const TaskRef& task);
  void deliver(Job& job, std::size_t term_index, TermResult&& delivery);
  void account_skipped(Job& job, std::size_t n);
  void finalize(Job& job);

  EngineConfig config_;
  FairScheduler scheduler_;

  /// What a delivered job leaves: its final status, and the root and level
  /// a repeated fetch echoes.
  struct Delivered {
    JobStatusInfo status;
    int root = 0;
    int level = 0;
  };

  mutable std::mutex jobs_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::map<std::uint64_t, Delivered> delivered_;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t terminal_jobs_ = 0;

  obs::CounterLedger<kEngineCounterRows> counters_;
  obs::CounterLedger<fleet::kFleetCounterRows> fleet_;  ///< lane joins/leaves

  std::atomic<std::size_t> lane_target_{0};  ///< current fleet-size target

  mutable std::mutex wait_mutex_;
  std::condition_variable terminal_cv_;

  std::vector<std::thread> lanes_;
  std::atomic<std::size_t> busy_lanes_{0};
  bool down_ = false;  ///< guarded by jobs_mutex_
};

}  // namespace mg::svc
