// Admission control and the per-job priority + weighted-fair task scheduler
// that multiplexes one shared worker fleet across concurrent jobs.
//
// Admission is two bounded stages: at most `max_running` jobs actively
// dispatch tasks, at most `max_queued` more wait for a running slot, and
// anything beyond that is rejected at submit time (explicit backpressure —
// the client gets a Rejected ticket, never an unbounded queue).
//
// Among running jobs the scheduler is strict-priority first, weighted-fair
// within a priority class: each job accumulates virtual service
// (task cost / weight, cost = subsolve_payload_bytes, the same weight notion
// as LPT dispatch), and next_task() picks the runnable job with the highest
// priority, then the smallest virtual service, then the smallest id — a
// deterministic start-time-fair queue, not a lottery.  Fairness reorders
// *scheduling* only; results are keyed by term index downstream, so numerics
// never see it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace mg::svc {

struct AdmissionConfig {
  std::size_t max_running = 4;  ///< jobs dispatching tasks concurrently
  std::size_t max_queued = 16;  ///< jobs waiting for a running slot
};

/// One schedulable work unit: term `term_index` of job `job`.
struct TaskRef {
  std::uint64_t job = 0;
  std::size_t term_index = 0;
  double cost = 1.0;  ///< service charged against the job's fair share
};

struct SchedulerCounters {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t activated = 0;   ///< queued -> running promotions
  std::uint64_t tasks_picked = 0;
  std::uint64_t tasks_dropped = 0;  ///< pending tasks discarded by cancel
};

class FairScheduler {
 public:
  explicit FairScheduler(AdmissionConfig config = {});

  /// Admits job `id` with its pending task list, or rejects it (returns
  /// false, sets `reason`) when both admission stages are full.  Admitted
  /// jobs start dispatching immediately if a running slot is free.
  bool admit(std::uint64_t id, std::int32_t priority, double weight, std::vector<TaskRef> tasks,
             std::string& reason);

  /// True while the job holds a running slot (dispatching or in flight).
  bool is_active(std::uint64_t id) const;

  /// Blocks until a task is runnable, then charges it to its job's fair
  /// share and returns it.  Returns nullopt only after stop().
  std::optional<TaskRef> next_task();

  /// Drops every not-yet-picked task of `id`; returns how many were pending.
  /// The job keeps its slot until release_slot (in-flight tasks drain first).
  std::size_t drop_pending(std::uint64_t id);

  /// The job is terminal: frees its running slot (promoting the next queued
  /// job) or removes it from the wait queue.  Idempotent.
  void release_slot(std::uint64_t id);

  /// Asks `n` lanes to retire: the next `n` next_task() calls — parked
  /// waiters included — return nullopt instead of a task, ending their lane
  /// loop.  The engine's elastic resize uses this to shrink the fleet;
  /// pending tasks are untouched (the surviving lanes pick them up).
  void retire_lanes(std::size_t n);

  /// Wakes every next_task() waiter with nullopt; further admits fail.
  void stop();

  std::size_t running_jobs() const;
  std::size_t queued_jobs() const;
  SchedulerCounters counters() const;

 private:
  struct Job {
    std::int32_t priority = 0;
    double weight = 1.0;
    double virtual_service = 0.0;
    std::deque<TaskRef> pending;
    bool running = false;  ///< holds a running slot (vs waiting)
  };

  // All private methods assume mutex_ held.
  void promote_waiters();
  Job* pick_job();

  AdmissionConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::map<std::uint64_t, Job> jobs_;
  std::deque<std::uint64_t> wait_queue_;  ///< admitted, no running slot yet
  std::size_t running_ = 0;
  std::size_t retire_tokens_ = 0;  ///< next_task() calls that must return nullopt
  bool stopped_ = false;
  SchedulerCounters counters_;
};

}  // namespace mg::svc
