// Perf smoke for the pipelined transport (DESIGN.md §15): the same batch of
// echo round trips pushed through a RemoteEndpoint at pipeline depth 1 (one
// frame in flight per channel) and depth 4 (the N-in-flight window), over
// loopback TCP with in-process worker threads.  The depth-4/depth-1
// throughput ratio is the headline: with more clients than channels, a
// window keeps the next Work frame already buffered at the worker when it
// finishes the previous one, so the master's turnaround latency leaves the
// critical path.  The dispatch-stall counter (time trips spent waiting for
// a window slot) is reported alongside — at depth 1 every queued trip
// stalls; the window is what shrinks it.
//
// Loopback has no round-trip time, so the link latency the window exists to
// hide is emulated (--delay-ms, default 1): a FaultPlan with net_slow=1.0
// holds every Work frame on a loop timer for that long before it reaches
// the wire — the same timer path seeded net-fault runs exercise, costing no
// CPU while armed.  At depth 1 every trip pays the delay serially; at depth
// 4 four delays ride the conveyor at once.  --delay-ms 0 measures the raw
// loopback transport, where only turnaround overlap is left to win.
//
// The echo worker models a fixed per-task service time (--service-us) as a
// sleep, not a busy-wait: in the real deployment the service time is spent
// on the *worker machine's* core, so on the single loopback host the core
// must stay free for the master's loop thread.
//
// The default output path is BENCH_net.json in the working directory; the
// committed copy at the repo root is this tool's output on the dev
// container.  The file is a bench *trajectory* (bench/bench_trajectory.hpp):
// each run appends one {label, timestamp, report} entry.  Timings are
// wall-clock and machine-dependent; the report is a smoke record, not a
// calibrated benchmark.
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_trajectory.hpp"
#include "examples/cli.hpp"
#include "fault/fault_plan.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "obs/report.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace mg;
using namespace std::chrono_literals;

struct DepthTiming {
  double wall_seconds = 0.0;
  double round_trip_rate = 0.0;        ///< completed trips per second
  double dispatch_stall_seconds = 0.0; ///< summed queued->dispatched wait
  std::uint64_t trips = 0;
};

/// One measured batch: `clients` threads × `tasks` echo trips against
/// `workers` in-process worker threads, all channels at `depth`.
DepthTiming run_depth_once(std::size_t depth, std::size_t workers, int clients, int tasks,
                           std::size_t payload_bytes, int service_us, int delay_ms) {
  fault::FaultPlanConfig link;
  link.net_slow = delay_ms > 0 ? 1.0 : 0.0;  // every Work frame rides the timer
  link.net_delay = std::chrono::milliseconds(delay_ms);
  const fault::FaultPlan plan(link);

  net::RemoteEndpointConfig config;
  config.telemetry = false;  // raw echo: measure the transport, not the tracer
  config.pipeline_depth = depth;
  if (delay_ms > 0) config.faults = &plan;
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);

  std::vector<std::thread> worker_threads;
  const std::uint16_t port = endpoint.port();
  for (std::size_t w = 0; w < workers; ++w) {
    worker_threads.emplace_back([port, service_us] {
#ifdef __linux__
      // Default timer slack (50 us) would round short service sleeps up and
      // swamp the very turnaround latency this bench measures.
      prctl(PR_SET_TIMERSLACK, 1000);
#endif
      net::run_worker_loop("127.0.0.1", port,
                           [service_us](const std::vector<std::uint8_t>& work) {
                             if (service_us > 0)
                               std::this_thread::sleep_for(std::chrono::microseconds(service_us));
                             return work;
                           });
    });
  }
  if (!endpoint.wait_for_workers(workers, 15s)) {
    std::fprintf(stderr, "net_bench: workers never connected\n");
    std::exit(1);
  }

  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);

  std::atomic<int> failures{0};
  DepthTiming timing;
  support::Stopwatch clock;
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&endpoint, &payload, &failures, tasks] {
      for (int i = 0; i < tasks; ++i) {
        const auto trip = endpoint.round_trip(payload);
        if (!trip.ok || trip.payload != payload) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : client_threads) t.join();
  timing.wall_seconds = clock.elapsed_seconds();

  if (failures.load() != 0) {
    std::fprintf(stderr, "net_bench: %d echo trips failed\n", failures.load());
    std::exit(1);
  }
  const net::RemoteCounters counters = endpoint.counters();
  timing.trips = counters.round_trips_ok;
  timing.round_trip_rate = timing.trips / timing.wall_seconds;
  timing.dispatch_stall_seconds = counters.dispatch_stall_micros / 1e6;

  endpoint.shutdown();
  for (auto& t : worker_threads) t.join();
  return timing;
}

/// Best-of-`reps` throughput — one-core CI containers are noisy enough that
/// a single rep can land on a scheduler hiccup.
DepthTiming run_depth(std::size_t depth, std::size_t workers, int clients, int tasks,
                      std::size_t payload_bytes, int service_us, int delay_ms, int reps) {
  DepthTiming best;
  for (int r = 0; r < reps; ++r) {
    const DepthTiming t =
        run_depth_once(depth, workers, clients, tasks, payload_bytes, service_us, delay_ms);
    if (r == 0 || t.round_trip_rate > best.round_trip_rate) best = t;
  }
  return best;
}

void write_depth(obs::RunReport& report, const char* key, const DepthTiming& timing) {
  report.derived().key(key).begin_object();
  report.derived().kv("wall_seconds", timing.wall_seconds);
  report.derived().kv("round_trip_rate", timing.round_trip_rate);
  report.derived().kv("dispatch_stall_seconds", timing.dispatch_stall_seconds);
  report.derived().kv("round_trips", timing.trips);
  report.derived().end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_net.json";
  std::string label = "dev";
  std::string timestamp;
  std::size_t workers = 2;
  int clients = 8;
  int tasks = 100;
  std::size_t payload_bytes = 1024;
  int service_us = 30;
  int delay_ms = 1;
  int reps = 3;
  namespace cli = examples::cli;
  cli::Table("net_bench",
             {cli::text("--out", out_path, "PATH", "trajectory to append the entry to"),
              cli::count("--workers", workers, {1}, "in-process worker threads"),
              cli::count("--clients", clients, {1}, "client threads sending echo trips"),
              cli::count("--tasks", tasks, {1}, "echo trips per client"),
              cli::count("--payload", payload_bytes, {}, "bytes per echo payload"),
              cli::count("--service-us", service_us, {}, "worker service time per trip (us)"),
              cli::count("--delay-ms", delay_ms, {}, "emulated link delay per Work frame (ms)"),
              cli::count("--reps", reps, {1}, "repetitions; the best is kept"),
              cli::text("--label", label, "S", "label of the entry"),
              cli::text("--timestamp", timestamp, "S", "timestamp of the entry (default: now)")})
      .parse_or_exit(argc, argv);

  obs::RunReport report("net_bench");
  report.config().begin_object();
  report.config().kv("workers", workers).kv("clients", clients).kv("tasks_per_client", tasks);
  report.config().kv("payload_bytes", payload_bytes).kv("service_us", service_us);
  report.config().kv("link_delay_ms", delay_ms).kv("reps", reps);
  report.config().end_object();
  report.derived().begin_object();

  std::printf(
      "%d clients x %d echo trips of %zu B (%d us service, %d ms link) over %zu workers:\n",
      clients, tasks, payload_bytes, service_us, delay_ms, workers);
  const DepthTiming depth1 =
      run_depth(1, workers, clients, tasks, payload_bytes, service_us, delay_ms, reps);
  std::printf("  depth 1  %.3f s  (%.0f trips/s, stall %.3f s)\n", depth1.wall_seconds,
              depth1.round_trip_rate, depth1.dispatch_stall_seconds);
  const DepthTiming depth4 =
      run_depth(4, workers, clients, tasks, payload_bytes, service_us, delay_ms, reps);
  const double speedup =
      depth1.round_trip_rate > 0.0 ? depth4.round_trip_rate / depth1.round_trip_rate : 0.0;
  std::printf("  depth 4  %.3f s  (%.0f trips/s, stall %.3f s, %.2fx)\n", depth4.wall_seconds,
              depth4.round_trip_rate, depth4.dispatch_stall_seconds, speedup);

  write_depth(report, "depth1", depth1);
  write_depth(report, "depth4", depth4);
  report.derived().kv("pipelined_speedup", speedup);
  report.derived().end_object();

  if (timestamp.empty()) timestamp = bench::default_timestamp();
  if (!bench::append_bench_entry(out_path, label, timestamp,
                                 report.json(obs::registry().snapshot()))) {
    std::fprintf(stderr, "net_bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("entry '%s' appended to %s\n", label.c_str(), out_path.c_str());
  return 0;
}
