#include "svc/scheduler.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"

namespace mg::svc {

namespace {

struct SchedMetrics {
  obs::Counter& admitted;
  obs::Counter& rejected;
  obs::Counter& activated;
  obs::Counter& tasks_picked;
  obs::Counter& tasks_dropped;
};

SchedMetrics& sched_metrics() {
  static SchedMetrics m{
      obs::registry().counter("svc.sched.admitted"),
      obs::registry().counter("svc.sched.rejected"),
      obs::registry().counter("svc.sched.activated"),
      obs::registry().counter("svc.sched.tasks_picked"),
      obs::registry().counter("svc.sched.tasks_dropped"),
  };
  return m;
}

}  // namespace

FairScheduler::FairScheduler(AdmissionConfig config) : config_(config) {}

bool FairScheduler::admit(std::uint64_t id, std::int32_t priority, double weight,
                          std::vector<TaskRef> tasks, std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_) {
    reason = "scheduler is stopped";
    ++counters_.rejected;
    sched_metrics().rejected.add();
    return false;
  }
  if (running_ >= config_.max_running && wait_queue_.size() >= config_.max_queued) {
    reason = "admission queue full (" + std::to_string(running_) + " running, " +
             std::to_string(wait_queue_.size()) + " queued)";
    ++counters_.rejected;
    sched_metrics().rejected.add();
    return false;
  }
  Job job;
  job.priority = priority;
  job.weight = weight > 0.0 ? weight : 1.0;
  job.pending.assign(tasks.begin(), tasks.end());
  jobs_.emplace(id, std::move(job));
  wait_queue_.push_back(id);
  ++counters_.admitted;
  sched_metrics().admitted.add();
  promote_waiters();
  return true;
}

bool FairScheduler::is_active(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  return it != jobs_.end() && it->second.running;
}

void FairScheduler::promote_waiters() {
  while (running_ < config_.max_running && !wait_queue_.empty()) {
    // Highest priority first; FIFO within a class (stable scan).
    auto best = wait_queue_.begin();
    for (auto it = std::next(wait_queue_.begin()); it != wait_queue_.end(); ++it) {
      if (jobs_.at(*it).priority > jobs_.at(*best).priority) best = it;
    }
    const std::uint64_t id = *best;
    wait_queue_.erase(best);
    Job& job = jobs_.at(id);
    // A start-time-fair queue: a newly running job starts at the minimum
    // virtual service of its peers, so it shares from now on instead of
    // monopolising the fleet to "catch up" on time it never waited.
    double floor = 0.0;
    bool first = true;
    for (const auto& [jid, j] : jobs_) {
      if (!j.running || jid == id) continue;
      floor = first ? j.virtual_service : std::min(floor, j.virtual_service);
      first = false;
    }
    job.virtual_service = first ? 0.0 : floor;
    job.running = true;
    ++running_;
    ++counters_.activated;
    sched_metrics().activated.add();
  }
  task_ready_.notify_all();
}

FairScheduler::Job* FairScheduler::pick_job() {
  Job* best = nullptr;
  std::uint64_t best_id = 0;
  for (auto& [id, job] : jobs_) {
    if (!job.running || job.pending.empty()) continue;
    if (best == nullptr || job.priority > best->priority ||
        (job.priority == best->priority && job.virtual_service < best->virtual_service) ||
        (job.priority == best->priority && job.virtual_service == best->virtual_service &&
         id < best_id)) {
      best = &job;
      best_id = id;
    }
  }
  return best;
}

std::optional<TaskRef> FairScheduler::next_task() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopped_) return std::nullopt;
    if (retire_tokens_ > 0) {
      --retire_tokens_;
      return std::nullopt;  // this lane retires (elastic shrink)
    }
    Job* job = pick_job();
    if (job != nullptr) {
      TaskRef task = job->pending.front();
      job->pending.pop_front();
      job->virtual_service += task.cost / job->weight;
      ++counters_.tasks_picked;
      sched_metrics().tasks_picked.add();
      return task;
    }
    task_ready_.wait(lock);
  }
}

std::size_t FairScheduler::drop_pending(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return 0;
  const std::size_t dropped = it->second.pending.size();
  it->second.pending.clear();
  counters_.tasks_dropped += dropped;
  sched_metrics().tasks_dropped.add(dropped);
  return dropped;
}

void FairScheduler::release_slot(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  if (it->second.running) {
    --running_;
  } else {
    const auto w = std::find(wait_queue_.begin(), wait_queue_.end(), id);
    if (w != wait_queue_.end()) wait_queue_.erase(w);
  }
  jobs_.erase(it);
  promote_waiters();
}

void FairScheduler::retire_lanes(std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  retire_tokens_ += n;
  task_ready_.notify_all();
}

void FairScheduler::stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
  task_ready_.notify_all();
}

std::size_t FairScheduler::running_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

std::size_t FairScheduler::queued_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wait_queue_.size();
}

SchedulerCounters FairScheduler::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace mg::svc
