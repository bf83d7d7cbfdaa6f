// Perf smoke for the solve service: the same batch of jobs pushed through a
// SolveEngine serially (submit, wait, submit, ...) and concurrently (submit
// all, wait all) over one shared lane fleet, plus a single-threaded
// FairScheduler micro-loop isolating the per-pick scheduling overhead.  The
// concurrent/serial ratio is the tenancy check: sharing the fleet among 8
// jobs must not cost throughput versus queueing them end-to-end (and wins
// when a lone job cannot fill the lanes; on a single-core container both
// modes serialize on the CPU and the ratio sits near 1).
//
// The default output path is BENCH_svc.json in the working directory; the
// committed copy at the repo root is this tool's output on the dev
// container.  The file is a bench *trajectory* (bench/bench_trajectory.hpp):
// each run appends one {label, timestamp, report} entry — pass
// --label="$(git describe --always --dirty)" and a --timestamp so the entry
// says which tree produced it.  Timings are wall-clock and machine-
// dependent; the report is a smoke record, not a calibrated benchmark.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_trajectory.hpp"
#include "examples/cli.hpp"
#include "obs/report.hpp"
#include "support/stopwatch.hpp"
#include "svc/engine.hpp"
#include "svc/scheduler.hpp"

namespace {

using namespace mg;

struct BatchTiming {
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  double mean_queue_wait_seconds = 0.0;
  double mean_run_seconds = 0.0;
};

svc::JobSpec bench_spec(int level, int index) {
  svc::JobSpec spec;
  spec.root = 2;
  spec.level = level;
  spec.le_tol = 1e-3;
  spec.tag = "bench-" + std::to_string(index);
  return spec;
}

/// Runs `jobs` identical jobs through a fresh engine.  `concurrent` submits
/// the whole batch before waiting; serial waits each job out before the next
/// submit, i.e. a single-tenant client against the same fleet.
BatchTiming run_batch_once(int jobs, std::size_t lanes, int level, bool concurrent) {
  svc::EngineConfig config;
  config.lanes = lanes;
  config.admission.max_running = static_cast<std::size_t>(jobs);
  config.admission.max_queued = static_cast<std::size_t>(jobs);
  svc::SolveEngine engine(config);

  BatchTiming timing;
  std::vector<std::uint64_t> ids;
  support::Stopwatch clock;
  for (int j = 0; j < jobs; ++j) {
    const svc::JobTicket ticket = engine.submit(bench_spec(level, j));
    if (!ticket.accepted) {
      std::fprintf(stderr, "svc_bench: job rejected: %s\n", ticket.reason.c_str());
      std::exit(1);
    }
    ids.push_back(ticket.job_id);
    if (!concurrent) engine.wait_terminal(ticket.job_id, std::chrono::minutes(10));
  }
  if (concurrent) {
    for (const std::uint64_t id : ids) engine.wait_terminal(id, std::chrono::minutes(10));
  }
  timing.wall_seconds = clock.elapsed_seconds();
  timing.jobs_per_second = jobs / timing.wall_seconds;
  for (const std::uint64_t id : ids) {
    const svc::JobStatusInfo status = engine.status(id);
    if (status.state != svc::JobState::Done) {
      std::fprintf(stderr, "svc_bench: job not Done: %s\n", status.error.c_str());
      std::exit(1);
    }
    timing.mean_queue_wait_seconds += status.queue_wait_seconds / jobs;
    timing.mean_run_seconds += status.run_seconds / jobs;
  }
  engine.shutdown();
  return timing;
}

/// Best-of-`reps` wall time (per-job means come from the fastest rep) — the
/// one-core dev container is noisy enough that a single rep can swing either
/// side of parity.
BatchTiming run_batch(int jobs, std::size_t lanes, int level, bool concurrent, int reps) {
  BatchTiming best;
  for (int r = 0; r < reps; ++r) {
    const BatchTiming timing = run_batch_once(jobs, lanes, level, concurrent);
    if (r == 0 || timing.wall_seconds < best.wall_seconds) best = timing;
  }
  return best;
}

/// Pure scheduler cost: one thread draining next_task() for `jobs` tenants
/// of `tasks_per_job` unit tasks — no solves, just the priority +
/// weighted-fair pick under the lock.
double scheduler_pick_seconds(int jobs, int tasks_per_job) {
  svc::AdmissionConfig admission;
  admission.max_running = static_cast<std::size_t>(jobs);
  admission.max_queued = 0;
  svc::FairScheduler scheduler(admission);
  for (int j = 0; j < jobs; ++j) {
    std::vector<svc::TaskRef> tasks(static_cast<std::size_t>(tasks_per_job));
    for (int t = 0; t < tasks_per_job; ++t) {
      tasks[static_cast<std::size_t>(t)] = {static_cast<std::uint64_t>(j + 1),
                                            static_cast<std::size_t>(t), 1.0};
    }
    std::string reason;
    scheduler.admit(static_cast<std::uint64_t>(j + 1), 0, 1.0, std::move(tasks), reason);
  }
  const int picks = jobs * tasks_per_job;
  support::Stopwatch clock;
  for (int i = 0; i < picks; ++i) scheduler.next_task();
  const double per_pick = clock.elapsed_seconds() / picks;
  for (int j = 0; j < jobs; ++j) scheduler.release_slot(static_cast<std::uint64_t>(j + 1));
  scheduler.stop();
  return per_pick;
}

void write_batch(obs::RunReport& report, const char* key, const BatchTiming& timing) {
  report.derived().key(key).begin_object();
  report.derived().kv("wall_seconds", timing.wall_seconds);
  report.derived().kv("jobs_per_second", timing.jobs_per_second);
  report.derived().kv("mean_queue_wait_seconds", timing.mean_queue_wait_seconds);
  report.derived().kv("mean_run_seconds", timing.mean_run_seconds);
  report.derived().end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_svc.json";
  std::string label = "dev";
  std::string timestamp;
  int jobs = 8;
  std::size_t lanes = 8;
  int level = 3;
  int reps = 5;
  namespace cli = examples::cli;
  cli::Table("svc_bench",
             {cli::text("--out", out_path, "PATH", "trajectory to append the entry to"),
              cli::count("--jobs", jobs, {1}, "jobs per batch"),
              cli::count("--lanes", lanes, {1}, "lane threads of the engine"),
              cli::count("--level", level, {}, "sparse-grid level of each job"),
              cli::count("--reps", reps, {1}, "repetitions; the best is kept"),
              cli::text("--label", label, "S", "label of the entry"),
              cli::text("--timestamp", timestamp, "S", "timestamp of the entry (default: now)")})
      .parse_or_exit(argc, argv);

  obs::RunReport report("svc_bench");
  report.config().begin_object();
  report.config().kv("jobs", jobs).kv("lanes", lanes).kv("root", 2).kv("level", level);
  report.config().kv("le_tol", 1e-3).kv("reps", reps);
  report.config().end_object();
  report.derived().begin_object();

  // --- serial vs concurrent tenancy over the same fleet -------------------------
  const BatchTiming serial = run_batch(jobs, lanes, level, /*concurrent=*/false, reps);
  const BatchTiming concurrent = run_batch(jobs, lanes, level, /*concurrent=*/true, reps);
  const double speedup =
      concurrent.wall_seconds > 0.0 ? serial.wall_seconds / concurrent.wall_seconds : 0.0;
  std::printf("%d jobs of G(2;%d,%d) on %zu lanes:\n", jobs, level, level, lanes);
  std::printf("  serial      %.3f s  (%.2f jobs/s)\n", serial.wall_seconds,
              serial.jobs_per_second);
  std::printf("  concurrent  %.3f s  (%.2f jobs/s, %.2fx)\n", concurrent.wall_seconds,
              concurrent.jobs_per_second, speedup);
  write_batch(report, "serial", serial);
  write_batch(report, "concurrent", concurrent);
  report.derived().kv("concurrent_speedup", speedup);

  // --- scheduler pick overhead ---------------------------------------------------
  const double pick = scheduler_pick_seconds(jobs, 512);
  std::printf("scheduler pick (%d tenants, 512 tasks each): %.3g us/pick\n", jobs, pick * 1e6);
  report.derived().key("scheduler").begin_object();
  report.derived().kv("tenants", jobs).kv("tasks_per_tenant", 512);
  report.derived().kv("pick_seconds", pick);
  report.derived().end_object();
  report.derived().end_object();

  if (timestamp.empty()) timestamp = bench::default_timestamp();
  if (!bench::append_bench_entry(out_path, label, timestamp,
                                 report.json(obs::registry().snapshot()))) {
    std::fprintf(stderr, "svc_bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("entry '%s' appended to %s\n", label.c_str(), out_path.c_str());
  return 0;
}
