#include "svc/engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/concurrent_solver.hpp"
#include "core/marshal.hpp"
#include "grid/combination.hpp"
#include "net/remote.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "transport/seq_solver.hpp"
#include "transport/subsolve.hpp"

namespace mg::svc {

namespace {

using steady = std::chrono::steady_clock;

double seconds_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Fleet-wide latency histograms (svc.*); the engine's counters are the
// ledger's rows (kEngineCounterRows).  Per-job numbers live in each job's own
// registry, so one tenant's view never contains another tenant's traffic.
struct SvcMetrics {
  obs::Histogram& task_seconds;
  obs::Histogram& job_seconds;
};

SvcMetrics& svc_metrics() {
  static SvcMetrics m{
      obs::registry().histogram("svc.task_seconds", obs::default_latency_buckets()),
      obs::registry().histogram("svc.job_seconds", obs::default_latency_buckets()),
  };
  return m;
}

}  // namespace

/// One term's computed payload travelling from a lane into the job record.
struct SolveEngine::TermResult {
  grid::Field field;
  transport::GridRunRecord record;
};

struct SolveEngine::Job {
  std::uint64_t id = 0;
  JobSpec spec;
  transport::ProgramConfig program;
  std::vector<grid::CombinationTerm> terms;

  /// Job-scoped adversary (null without a fault_spec); ordinals are the
  /// job's own attempt counter, so injections are per-tenant deterministic.
  std::unique_ptr<const fault::FaultPlan> fault_plan;
  std::atomic<std::uint64_t> attempt_ordinal{0};
  std::atomic<bool> cancel{false};

  /// The job's private metrics namespace; snapshotted into its report.
  obs::Registry metrics;

  mutable std::mutex m;
  JobState state = JobState::Queued;
  std::vector<std::optional<grid::Field>> solutions;
  std::vector<transport::GridRunRecord> records;
  std::size_t outstanding = 0;  ///< terms not yet delivered/dropped/skipped
  std::size_t terms_done = 0;
  fault::FaultCounters faults;  ///< injections and detections seen by the lanes
  fault::LeaseLedger ledger;    ///< decides every lost attempt, on the job's own budget
  std::string error;
  std::optional<grid::Field> combined;
  std::string report_json;
  steady::time_point submitted_at{};
  steady::time_point started_at{};
  bool started = false;
  double queue_wait_seconds = 0.0;
  double run_seconds = 0.0;

  Job(std::uint64_t id_, const JobSpec& spec_, const fault::RetryPolicy& retry)
      : id(id_), spec(spec_), ledger(retry) {
    program.root = spec_.root;
    program.level = spec_.level;
    program.le_tol = spec_.le_tol;
  }
};

SolveEngine::SolveEngine(EngineConfig config)
    : config_(config), scheduler_(config.admission) {
  MG_REQUIRE(config_.lanes > 0);
  lane_target_.store(config_.lanes, std::memory_order_relaxed);
  lanes_.reserve(config_.lanes);
  for (std::size_t i = 0; i < config_.lanes; ++i) {
    lanes_.emplace_back([this, i] { lane_main(i); });
  }
}

SolveEngine::~SolveEngine() { shutdown(); }

JobTicket SolveEngine::submit(const JobSpec& spec) {
  svc_metrics();  // GetStats reads the latency histograms from the first submit on
  counters_.bump(&EngineCounters::submitted);

  JobTicket ticket;
  // Validation first: a malformed spec is a rejection, never an exception
  // escaping into the session layer.
  std::string why;
  if (spec.root < 1 || spec.root > kMaxRoot) {
    why = "root out of range [1, " + std::to_string(kMaxRoot) + "]";
  } else if (spec.level < 0 || spec.level > kMaxLevel) {
    why = "level out of range [0, " + std::to_string(kMaxLevel) + "]";
  } else if (!(spec.le_tol > 0.0)) {
    why = "le_tol must be > 0";
  } else if (!(spec.weight > 0.0)) {
    why = "weight must be > 0";
  } else if (!spec.fault_spec.empty()) {
    try {
      (void)fault::parse_fault_spec(spec.fault_spec);
    } catch (const std::exception& e) {
      why = std::string("bad fault spec: ") + e.what();
    }
  }
  if (!why.empty()) {
    ticket.reason = "invalid spec: " + why;
    counters_.bump(&EngineCounters::rejected);
    return ticket;
  }

  auto job = std::make_shared<Job>(0, spec, config_.retry);
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (down_) {
      ticket.reason = "server is shutting down";
      counters_.bump(&EngineCounters::rejected);
      return ticket;
    }
    job->id = next_job_id_++;
  }
  job->terms = grid::combination_terms(spec.root, spec.level);
  job->solutions.resize(job->terms.size());
  job->records.assign(job->terms.size(),
                      transport::GridRunRecord{grid::Grid2D(spec.root, 0, 0), 0.0, {}, 0.0});
  job->outstanding = job->terms.size();
  job->submitted_at = steady::now();
  if (!spec.fault_spec.empty()) {
    job->fault_plan =
        std::make_unique<const fault::FaultPlan>(fault::parse_fault_spec(spec.fault_spec));
  }
  job->metrics.gauge("job.priority").set(spec.priority);
  job->metrics.gauge("job.weight").set(spec.weight);
  job->metrics.counter("job.terms_total").add(job->terms.size());

  // Dispatch order is LPT (heaviest grid first) — the same completion-tail
  // argument as the batch path; the cost doubles as the fair-share charge.
  std::vector<TaskRef> tasks;
  tasks.reserve(job->terms.size());
  for (std::size_t k : mw::lpt_order(job->terms, 0, job->terms.size())) {
    tasks.push_back(TaskRef{job->id, k,
                            static_cast<double>(transport::subsolve_payload_bytes(job->terms[k].grid))});
  }

  std::string reason;
  {
    // Publish the record before admitting: a lane may pick a task the
    // instant admit() returns.
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.emplace(job->id, job);
  }
  if (!scheduler_.admit(job->id, spec.priority, spec.weight, std::move(tasks), reason)) {
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      jobs_.erase(job->id);
    }
    ticket.reason = reason;
    counters_.bump(&EngineCounters::rejected);
    return ticket;
  }

  ticket.accepted = true;
  ticket.job_id = job->id;
  counters_.bump(&EngineCounters::accepted);
  return ticket;
}

void SolveEngine::lane_main(std::size_t lane_index) {
  (void)lane_index;
  while (auto task = scheduler_.next_task()) {
    std::shared_ptr<Job> job;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      const auto it = jobs_.find(task->job);
      if (it != jobs_.end()) job = it->second;
    }
    if (!job) continue;
    {
      std::lock_guard<std::mutex> lock(job->m);
      if (!job->started) {
        job->started = true;
        job->started_at = steady::now();
        job->queue_wait_seconds = seconds_between(job->submitted_at, job->started_at);
        job->metrics.gauge("job.queue_wait_seconds").set(job->queue_wait_seconds);
        if (job->state == JobState::Queued) job->state = JobState::Running;
      }
    }
    busy_lanes_.fetch_add(1, std::memory_order_relaxed);
    if (job->cancel.load(std::memory_order_acquire)) {
      account_skipped(*job, 1);
    } else {
      try {
        execute_task(*job, *task);
      } catch (const std::exception& e) {
        // A task that fails for real (subsolve threw, decode rejected every
        // attempt) takes the whole job down: record the error, drop the
        // rest, let in-flight siblings drain.
        {
          std::lock_guard<std::mutex> lock(job->m);
          if (job->error.empty()) job->error = e.what();
        }
        job->cancel.store(true, std::memory_order_release);
        account_skipped(*job, scheduler_.drop_pending(job->id) + 1);
      }
    }
    busy_lanes_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void SolveEngine::execute_task(Job& job, const TaskRef& task) {
  MG_ASSERT(task.term_index < job.terms.size());
  const grid::Grid2D& g = job.terms[task.term_index].grid;
  const mw::WorkItem item{task.term_index, g.root(), g.lx(), g.ly(), job.program.kernel_config()};

  obs::Histogram& job_task_seconds =
      job.metrics.histogram("job.task_seconds", obs::default_latency_buckets());
  support::Stopwatch task_watch;

  std::optional<mw::ResultItem> result;

  for (std::size_t attempt = 1; !result; ++attempt) {
    if (job.cancel.load(std::memory_order_acquire)) {
      account_skipped(job, 1);
      return;
    }
    if (attempt > 1) {
      // The previous attempt was lost: the job's ledger says whether the
      // term goes out again, and after how long.
      std::optional<std::chrono::milliseconds> wait;
      {
        std::lock_guard<std::mutex> lock(job.m);
        wait = job.ledger.lost(attempt - 1, /*graceful=*/false);
      }
      if (!wait) break;
      std::this_thread::sleep_for(*wait);
      job.metrics.counter("job.retries").add();
      counters_.bump(&EngineCounters::task_retries);
    }

    // Job-scoped injected fault for this attempt ordinal?
    if (job.fault_plan) {
      const std::uint64_t ordinal = job.attempt_ordinal.fetch_add(1, std::memory_order_relaxed);
      const fault::WorkerFault f = job.fault_plan->worker_fault(ordinal);
      if (f != fault::WorkerFault::None) {
        {
          std::lock_guard<std::mutex> lock(job.m);
          switch (f) {
            case fault::WorkerFault::Crash: ++job.faults.crashes_injected; break;
            case fault::WorkerFault::Hang: ++job.faults.hangs_injected; break;
            case fault::WorkerFault::Corrupt: ++job.faults.corruptions_injected; break;
            case fault::WorkerFault::None: break;
          }
          ++job.faults.crash_events;
        }
        job.metrics.counter("job.faults_injected").add();
        counters_.bump(&EngineCounters::faults_injected);
        if (f == fault::WorkerFault::Hang) {
          // A hung attempt parks its lane until the task deadline would
          // fire; bounded so a hostile spec cannot wedge the fleet.
          const auto deadline = config_.retry.task_deadline.count() > 0
                                    ? config_.retry.task_deadline
                                    : std::chrono::milliseconds(50);
          std::this_thread::sleep_for(std::min(deadline, std::chrono::milliseconds(200)));
          std::lock_guard<std::mutex> lock(job.m);
          ++job.faults.timeouts;
        }
        continue;  // attempt consumed by the injection; retry
      }
    }

    if (config_.remote != nullptr) {
      std::atomic<bool>* cancel_flag = &job.cancel;
      net::RemoteEndpoint::RoundTrip trip = config_.remote->round_trip(
          mw::encode_work_item(item),
          [cancel_flag] { return cancel_flag->load(std::memory_order_acquire); }, job.id);
      if (job.cancel.load(std::memory_order_acquire)) {
        account_skipped(job, 1);
        return;
      }
      if (!trip.ok) {
        job.metrics.counter("job.remote_failures").add();
        continue;  // lease failed: retry (fresh channel) or fall through
      }
      try {
        result = mw::decode_result_item(trip.payload);
      } catch (const std::exception&) {
        job.metrics.counter("job.remote_rejects").add();
        continue;  // corrupt reply == transport fault, never a fake result
      }
    } else {
      result = mw::execute_work_item(item);
    }
  }

  if (!result) {
    // The ledger abandoned the term (remote transport down, or a fault spec
    // hostile enough to spend the attempts or the budget): compute locally.
    // Same kernel, same bits — the tenant degrades to in-process compute,
    // never to a wrong answer or a hang.
    result = mw::execute_work_item(item);
    job.metrics.counter("job.local_fallbacks").add();
    counters_.bump(&EngineCounters::remote_fallbacks);
  }

  const double task_seconds = task_watch.elapsed_seconds();
  job_task_seconds.observe(task_seconds);
  svc_metrics().task_seconds.observe(task_seconds);
  counters_.bump(&EngineCounters::tasks_executed);
  job.metrics.counter("job.tasks_executed").add();

  MG_ASSERT(result->index == task.term_index);
  grid::Field field(job.terms[task.term_index].grid);
  field.data() = std::move(result->node_data);
  TermResult delivery{std::move(field),
                      transport::GridRunRecord{job.terms[task.term_index].grid,
                                               job.terms[task.term_index].coefficient,
                                               result->stats, result->elapsed_seconds}};
  deliver(job, task.term_index, std::move(delivery));
}

void SolveEngine::deliver(Job& job, std::size_t term_index, TermResult&& delivery) {
  bool fin = false;
  {
    std::lock_guard<std::mutex> lock(job.m);
    if (!job.solutions[term_index].has_value()) {
      job.solutions[term_index] = std::move(delivery.field);
      job.records[term_index] = delivery.record;
      ++job.terms_done;
      job.metrics.counter("job.terms_done").add();
      MG_ASSERT(job.outstanding > 0);
      --job.outstanding;
      fin = job.outstanding == 0;
    }
  }
  if (fin) finalize(job);
}

void SolveEngine::account_skipped(Job& job, std::size_t n) {
  if (n == 0) return;
  bool fin = false;
  {
    std::lock_guard<std::mutex> lock(job.m);
    const std::size_t k = std::min(n, job.outstanding);
    job.outstanding -= k;
    fin = job.outstanding == 0 && k > 0;
  }
  if (fin) finalize(job);
}

void SolveEngine::finalize(Job& job) {
  // Decide the terminal state and (for Done) combine.  By the time
  // outstanding hits zero no lane touches this job's solutions again, so
  // the combination runs unlocked.
  JobState final_state;
  {
    std::lock_guard<std::mutex> lock(job.m);
    if (is_terminal(job.state)) return;
    if (!job.error.empty()) {
      final_state = JobState::Failed;
    } else if (job.cancel.load(std::memory_order_acquire)) {
      final_state = JobState::Cancelled;
    } else {
      final_state = JobState::Done;
    }
  }

  if (final_state == JobState::Done) {
    // Exactly the batch master's step 5: components in term order, combined
    // onto the finest grid — the bit-identity anchor.
    std::vector<grid::Field> components;
    components.reserve(job.terms.size());
    for (auto& s : job.solutions) {
      MG_ASSERT(s.has_value());
      components.push_back(std::move(*s));
    }
    grid::Field combined = grid::combine(
        job.terms, components, grid::finest_grid(job.program.root, job.program.level));
    std::lock_guard<std::mutex> lock(job.m);
    job.combined = std::move(combined);
  }

  {
    std::lock_guard<std::mutex> lock(job.m);
    fault::FaultCounters faults = job.faults;
    faults += job.ledger.counters();
    job.state = final_state;
    job.run_seconds =
        job.started ? seconds_between(job.started_at, steady::now()) : 0.0;
    job.metrics.gauge("job.run_seconds").set(job.run_seconds);

    // The self-contained per-job report: spec echo, derived lifecycle, the
    // job's own fault ledger, and *its* registry snapshot — nothing from
    // other tenants.
    obs::RunReport report("solve_job");
    report.config().begin_object();
    report.config().kv("job_id", job.id);
    report.config().kv("root", job.program.root).kv("level", job.program.level);
    report.config().kv("le_tol", job.program.le_tol);
    report.config().kv("priority", static_cast<std::int64_t>(job.spec.priority));
    report.config().kv("weight", job.spec.weight);
    if (!job.spec.tag.empty()) report.config().kv("tag", job.spec.tag);
    if (!job.spec.fault_spec.empty()) report.config().kv("fault_spec", job.spec.fault_spec);
    report.config().end_object();
    report.derived().begin_object();
    report.derived().kv("state", to_string(job.state));
    report.derived().kv("terms_total", static_cast<std::uint64_t>(job.terms.size()));
    report.derived().kv("terms_done", static_cast<std::uint64_t>(job.terms_done));
    report.derived().kv("retries", static_cast<std::uint64_t>(faults.retries));
    report.derived().kv("queue_wait_s", job.queue_wait_seconds);
    report.derived().kv("run_s", job.run_seconds);
    if (!job.error.empty()) report.derived().kv("error", job.error);
    report.derived().key("grids").begin_array();
    for (std::size_t i = 0; i < job.records.size(); ++i) {
      // Solutions are moved out only on the Done path (where every term was
      // delivered); otherwise an empty slot marks a never-delivered term.
      if (job.state != JobState::Done && !job.solutions[i].has_value()) continue;
      const auto& r = job.records[i];
      report.derived().begin_object();
      report.derived().kv("grid", r.grid.name()).kv("coefficient", r.coefficient);
      report.derived().kv("steps_accepted", static_cast<std::uint64_t>(r.stats.accepted));
      report.derived().kv("stage_solves", static_cast<std::uint64_t>(r.stats.stage_solves));
      report.derived().kv("wall_s", r.elapsed_seconds);
      report.derived().end_object();
    }
    report.derived().end_array();
    report.derived().end_object();
    if (faults.any()) fault::fault_counters_to_json(report.faults(), faults);
    job.report_json = report.json(job.metrics.snapshot());
  }

  scheduler_.release_slot(job.id);
  svc_metrics().job_seconds.observe(job.run_seconds);
  switch (final_state) {
    case JobState::Done: counters_.bump(&EngineCounters::completed); break;
    case JobState::Failed: counters_.bump(&EngineCounters::failed); break;
    case JobState::Cancelled: counters_.bump(&EngineCounters::cancelled); break;
    default: break;
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    ++terminal_jobs_;
  }
  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
  }
  terminal_cv_.notify_all();
  support::log_info("svc: job ", job.id, " -> ", to_string(final_state));
}

JobStatusInfo SolveEngine::status_locked(const Job& job) {
  JobStatusInfo info;
  info.job_id = job.id;
  info.known = true;
  info.state = job.state;
  info.priority = job.spec.priority;
  info.weight = job.spec.weight;
  info.terms_total = job.terms.size();
  info.terms_done = job.terms_done;
  info.retries = job.ledger.counters().retries;
  info.queue_wait_seconds = job.queue_wait_seconds;
  info.run_seconds = is_terminal(job.state) || !job.started
                         ? job.run_seconds
                         : seconds_between(job.started_at, steady::now());
  info.tag = job.spec.tag;
  info.error = job.error;
  return info;
}

JobStatusInfo SolveEngine::status(std::uint64_t id) const {
  JobStatusInfo info;
  info.job_id = id;
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      job = it->second;
    } else if (const auto done = delivered_.find(id); done != delivered_.end()) {
      return done->second.status;
    }
  }
  if (!job) return info;
  std::lock_guard<std::mutex> lock(job->m);
  return status_locked(*job);
}

std::vector<JobStatusInfo> SolveEngine::active_statuses() const {
  std::vector<std::shared_ptr<Job>> jobs;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) jobs.push_back(job);  // id order (map)
  }
  std::vector<JobStatusInfo> out;
  for (const auto& job : jobs) {
    std::lock_guard<std::mutex> lock(job->m);
    if (is_terminal(job->state)) continue;
    out.push_back(status_locked(*job));
  }
  return out;
}

JobResultData SolveEngine::result(std::uint64_t id) {
  JobResultData data;
  data.job_id = id;
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  if (const auto done = delivered_.find(id); done != delivered_.end()) {
    data.known = true;
    data.ready = true;
    data.state = done->second.status.state;
    data.root = done->second.root;
    data.level = done->second.level;
    data.error = "result of job " + std::to_string(id) + " already delivered";
    return data;
  }
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return data;
  const std::shared_ptr<Job> job = it->second;
  std::lock_guard<std::mutex> job_lock(job->m);
  data.known = true;
  data.state = job->state;
  data.root = job->program.root;
  data.level = job->program.level;
  data.error = job->error;
  if (!is_terminal(job->state)) return data;
  data.ready = true;
  // No lane touches a terminal job's payload again, so it goes out by move,
  // and the job gives way to the status record that status() reads.
  data.report_json = std::move(job->report_json);
  if (job->state == JobState::Done && job->combined.has_value()) {
    data.combined_nodes = std::move(job->combined->data());
  }
  delivered_.emplace(id, Delivered{status_locked(*job), data.root, data.level});
  jobs_.erase(it);
  return data;
}

JobStatusInfo SolveEngine::cancel(std::uint64_t id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) job = it->second;
  }
  if (job) {
    bool request = false;
    {
      std::lock_guard<std::mutex> lock(job->m);
      request = !is_terminal(job->state);
    }
    if (request) {
      job->cancel.store(true, std::memory_order_release);
      account_skipped(*job, scheduler_.drop_pending(id));
    }
  }
  return status(id);
}

bool SolveEngine::wait_terminal(std::uint64_t id, std::chrono::milliseconds timeout) {
  const auto deadline = steady::now() + timeout;
  std::unique_lock<std::mutex> lock(wait_mutex_);
  for (;;) {
    const JobStatusInfo info = status(id);
    if (!info.known) return false;
    if (is_terminal(info.state)) return true;
    if (terminal_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      const JobStatusInfo last = status(id);
      return last.known && is_terminal(last.state);
    }
  }
}

std::size_t SolveEngine::terminal_jobs() const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  return terminal_jobs_;
}

SchedulerCounters SolveEngine::scheduler_counters() const { return scheduler_.counters(); }

fleet::FleetCounters SolveEngine::fleet_counters() const {
  fleet::FleetCounters out = fleet_.snapshot();
  // Fold in the TCP substrate's churn ledger so one probe answers for the
  // whole fleet, lanes and channels alike.
  if (config_.remote != nullptr) out += config_.remote->counters().fleet();
  return out;
}

std::size_t SolveEngine::resize(std::size_t lanes) {
  MG_REQUIRE(lanes > 0);
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const std::size_t cur = lane_target_.load(std::memory_order_relaxed);
  if (down_ || lanes == cur) return cur;
  if (lanes > cur) {
    const std::size_t added = lanes - cur;
    for (std::size_t i = 0; i < added; ++i) {
      const std::size_t index = lanes_.size();
      lanes_.emplace_back([this, index] { lane_main(index); });
    }
    fleet_.bump(&fleet::FleetCounters::joins, added);
    support::log_info("svc: fleet grew ", cur, " -> ", lanes, " lanes");
  } else {
    const std::size_t removed = cur - lanes;
    scheduler_.retire_lanes(removed);
    fleet_.bump(&fleet::FleetCounters::leaves, removed);
    support::log_info("svc: fleet shrinking ", cur, " -> ", lanes, " lanes");
  }
  lane_target_.store(lanes, std::memory_order_relaxed);
  return lanes;
}

void SolveEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (down_) {
      // Already shut down; lanes joined below on the first call only.
    }
    down_ = true;
  }
  scheduler_.stop();
  for (auto& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
  lanes_.clear();
  // Jobs stranded mid-flight by the stop fail visibly instead of reading as
  // forever-Running to a later status() poll.
  std::vector<std::shared_ptr<Job>> open;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    for (auto& [id, job] : jobs_) open.push_back(job);
  }
  for (auto& job : open) {
    bool strand = false;
    {
      std::lock_guard<std::mutex> lock(job->m);
      if (!is_terminal(job->state)) {
        if (job->error.empty()) job->error = "engine shut down";
        strand = true;
      }
    }
    if (strand) {
      job->cancel.store(true, std::memory_order_release);
      account_skipped(*job, scheduler_.drop_pending(job->id));
      std::lock_guard<std::mutex> lock(job->m);
      if (!is_terminal(job->state)) {
        job->state = JobState::Failed;
      }
    }
  }
}

}  // namespace mg::svc
