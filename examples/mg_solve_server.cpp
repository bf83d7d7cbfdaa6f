// The solve service as a process: a JobServer accepting solve jobs over the
// framed TCP codec, multiplexing one shared worker fleet across tenants.  The
// flag rows below are the usage; a bad argument prints them.  With --workers
// the tasks go over the wire to forked subsolve workers, and --trace merges
// the subsolve spans they ship back on the telemetry channel.
//
// The line "mg_solve_server listening on PORT" goes to stdout (flushed)
// first, so scripts can scrape the ephemeral port.
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

#include "cli.hpp"
#include "core/remote_worker.hpp"
#include "net/remote.hpp"
#include "obs/counter_ledger.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "svc/job_server.hpp"
#include "svc/stats.hpp"

namespace {

std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace mg;

  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  std::size_t lanes = 4;
  std::size_t workers = 0;
  long pipeline = 0;  // 0 = endpoint default
  std::size_t max_running = 4;
  std::size_t max_queued = 16;
  long idle_timeout_ms = 0;
  long run_seconds = 0;
  long stats_interval = 0;
  std::string report_path;
  std::string trace_path;

  namespace cli = examples::cli;
  cli::Table table(
      "mg_solve_server",
      {cli::host_port("--listen", listen_host, listen_port, "client address (default ephemeral)"),
       cli::count("--lanes", lanes, {1}, "lane threads executing job tasks"),
       cli::count("--workers", workers, {}, "tcp subsolve workers to fork; 0 = lanes compute"),
       cli::count("--pipeline", pipeline, {1, 64}, "work units in flight per worker channel"),
       cli::count("--max-running", max_running, {}, "jobs running at once"),
       cli::count("--max-queued", max_queued, {}, "jobs waiting for a running slot"),
       cli::count("--idle-timeout-ms", idle_timeout_ms, {}, "close idle sessions; 0 = never"),
       cli::count("--run-seconds", run_seconds, {}, "exit after this long; 0 = at SIGINT/SIGTERM"),
       cli::count("--stats-interval", stats_interval, {}, "print live stats every N s; 0 = never"),
       cli::text("--report", report_path, "PATH", "write a fleet-wide run report on exit"),
       cli::text("--trace", trace_path, "PATH", "write a Chrome trace of the spans on exit")});
  table.parse_or_exit(argc, argv);
  if (pipeline > 0 && workers == 0) {
    table.fail("bad --pipeline '" + std::to_string(pipeline) + "' (needs --workers)");
  }

  // Tracing must be on before any spans fire (and before the fork, so the
  // workers inherit nothing: they enable their own tracer lazily when the
  // first trace-context-carrying work unit arrives).
  if (!trace_path.empty()) obs::enable_wall_clock(obs::tracer());

  // TCP fleet: bind the worker listener and fork while still single-threaded
  // (same discipline as the batch solver's tcp backend), then bring up the
  // endpoint and the server, both of which spawn threads.
  net::TcpListener worker_listener;
  std::vector<int> worker_pids;
  if (workers > 0) {
    worker_listener = net::TcpListener("127.0.0.1", 0);
    std::fflush(stdout);
    const std::string host = worker_listener.host();
    const std::uint16_t port = worker_listener.port();
    worker_pids = net::fork_worker_processes(workers, [&worker_listener, host, port] {
      worker_listener.close();
      return mw::run_subsolve_worker(host, port);
    });
  }

  std::unique_ptr<net::RemoteEndpoint> endpoint;
  svc::JobServerConfig config;
  config.host = listen_host;
  config.port = listen_port;
  config.engine.lanes = lanes;
  config.engine.admission.max_running = max_running;
  config.engine.admission.max_queued = max_queued;
  config.idle_timeout = std::chrono::milliseconds(idle_timeout_ms);
  if (workers > 0) {
    net::RemoteEndpointConfig ep_config;
    if (pipeline > 0) ep_config.pipeline_depth = static_cast<std::size_t>(pipeline);
    endpoint = std::make_unique<net::RemoteEndpoint>(std::move(worker_listener), ep_config);
    if (!endpoint->wait_for_workers(workers, std::chrono::milliseconds(15'000))) {
      std::fprintf(stderr, "timed out waiting for %zu tcp worker(s)\n", workers);
      return 3;
    }
    config.engine.remote = endpoint.get();
  }

  svc::JobServer server(config);
  std::printf("mg_solve_server listening on %u\n", static_cast<unsigned>(server.port()));
  std::printf("fleet: %zu lanes%s; admission: %zu running / %zu queued; idle timeout %ld ms\n",
              lanes, workers > 0 ? (" over " + std::to_string(workers) + " tcp workers").c_str() : "",
              max_running, max_queued, idle_timeout_ms);
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const auto started = std::chrono::steady_clock::now();
  auto next_stats_at = started + std::chrono::seconds(stats_interval);
  while (!g_stop) {
    const auto now = std::chrono::steady_clock::now();
    if (run_seconds > 0 && now - started >= std::chrono::seconds(run_seconds)) break;
    if (stats_interval > 0 && now >= next_stats_at) {
      next_stats_at = now + std::chrono::seconds(stats_interval);
      std::printf("%s\n", svc::service_stats_json(server.stats()).c_str());
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.shutdown();
  if (endpoint) {
    endpoint->shutdown();
    const int worker_rc = net::wait_worker_processes(worker_pids);
    if (worker_rc != 0) std::printf("warning: tcp worker exit status %d\n", worker_rc);
  }

  const svc::EngineCounters ec = server.engine().counters();
  const svc::JobServerCounters sc = server.counters();
  std::printf("jobs: %llu submitted, %llu accepted, %llu rejected; "
              "%llu done / %llu failed / %llu cancelled\n",
              static_cast<unsigned long long>(ec.submitted),
              static_cast<unsigned long long>(ec.accepted),
              static_cast<unsigned long long>(ec.rejected),
              static_cast<unsigned long long>(ec.completed),
              static_cast<unsigned long long>(ec.failed),
              static_cast<unsigned long long>(ec.cancelled));
  std::printf("sessions: %llu opened, %llu idle-closed, %llu protocol errors, %llu pings\n",
              static_cast<unsigned long long>(sc.sessions_opened),
              static_cast<unsigned long long>(sc.idle_closed),
              static_cast<unsigned long long>(sc.protocol_errors),
              static_cast<unsigned long long>(sc.pings));

  if (!trace_path.empty()) {
    if (!obs::write_text_file(trace_path, obs::tracer().chrome_trace_json())) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu spans)\n", trace_path.c_str(), obs::tracer().size());
  }

  if (!report_path.empty()) {
    obs::RunReport report("mg_solve_server");
    report.config().begin_object();
    report.config().kv("lanes", static_cast<std::uint64_t>(lanes));
    report.config().kv("tcp_workers", static_cast<std::uint64_t>(workers));
    report.config().kv("max_running", static_cast<std::uint64_t>(max_running));
    report.config().kv("max_queued", static_cast<std::uint64_t>(max_queued));
    report.config().end_object();
    // The engine and session counters as StatsReport's JSON writes them: its
    // "engine" and "sessions" objects, one member per counter row.
    report.derived().begin_object();
    report.derived().key("engine").begin_object();
    obs::counters_json(report.derived(), ec, svc::kEngineCounterRows);
    report.derived().end_object();
    report.derived().key("sessions").begin_object();
    obs::counters_json(report.derived(), sc, svc::kJobServerCounterRows);
    report.derived().end_object();
    report.derived().end_object();
    if (!report.write(report_path)) return 1;
    std::printf("report written to %s\n", report_path.c_str());
  }
  return 0;
}
