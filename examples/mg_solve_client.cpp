// Client CLI for the solve service: submits jobs, polls status, fetches the
// combined result — and can verify bit-identity against a local sequential
// run of the same spec (the §6 claim carried over to multi-tenancy).  The
// rows below are the usage; a bad argument prints them.
//
// --stats prints the server's live service stats (scheduler depth, lane
// utilization, per-tenant queue/running detail, latency histograms).  Without
// a spec this is the whole run; with one, stats print after the jobs finish
// (so the tenant view reflects them).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "obs/json_writer.hpp"
#include "svc/client.hpp"
#include "svc/stats.hpp"
#include "transport/seq_solver.hpp"

int main(int argc, char** argv) {
  using namespace mg;

  std::string connect_host = "127.0.0.1";
  std::uint16_t connect_port = 0;
  svc::JobSpec spec;
  long jobs = 1;
  long cancel_after_ms = -1;
  long timeout_ms = 120'000;
  bool verify = false;
  bool ping = false;
  bool stats = false;
  std::string stats_format = "json";
  std::string report_dir;

  namespace cli = examples::cli;
  cli::Table table(
      "mg_solve_client",
      {cli::integer("root", spec.root, "root of the job's spec; the server checks ranges"),
       cli::integer("level", spec.level, "sparse-grid level of the job"),
       cli::real("le_tol", spec.le_tol, cli::Reals::Any, "ROS2 local error tolerance"),
       cli::host_port("--connect", connect_host, connect_port, "the server (required)"),
       cli::count("--jobs", jobs, {1}, "jobs of this spec, tags suffixed -1..-N"),
       cli::integer("--priority", spec.priority, "strict priority; higher runs first"),
       cli::real("--weight", spec.weight, cli::Reals::Any, "fair-share weight"),
       cli::text("--tag", spec.tag, "S", "job tag"),
       cli::text("--faults", spec.fault_spec, "SPEC", "seeded faults scoped to each job"),
       cli::count("--cancel-after-ms", cancel_after_ms, {}, "cancel each job N ms after submit"),
       cli::toggle("--verify", verify, "require bit-identity with a local sequential solve"),
       cli::text("--report-dir", report_dir, "DIR", "write each job's report to DIR/job_<id>.json"),
       cli::toggle("--ping", ping, "round-trip one Ping first and print the latency"),
       cli::count("--timeout-ms", timeout_ms, {}, "wait this long for each job"),
       cli::toggle("--stats", stats, "print the server's live service stats"),
       cli::choice("--stats-format", stats_format, {"json", "prom"}, "stats rendering")});
  table.parse_or_exit(argc, argv);
  if (!table.given("--connect")) table.fail("--connect=HOST:PORT is required");
  const bool spec_given = table.given("root");

  try {
    svc::JobClient client(connect_host, connect_port);

    if (ping) {
      const auto rtt = client.ping();
      std::printf("ping: %lld us\n", static_cast<long long>(rtt.count()));
      // A bare liveness probe: no spec given means nothing to submit.
      if (!spec_given && !stats) return 0;
    }

    const auto print_stats = [&client, &stats_format] {
      const svc::ServiceStats s = client.stats();
      const std::string text = stats_format == "prom" ? svc::service_stats_prometheus(s)
                                                      : svc::service_stats_json(s);
      std::fputs(text.c_str(), stdout);
      if (text.empty() || text.back() != '\n') std::fputc('\n', stdout);
    };

    // A bare stats scrape: no spec given means nothing to submit.
    if (stats && !spec_given) {
      print_stats();
      return 0;
    }

    // Submit every job up front — the whole point of the service is that the
    // fleet multiplexes them concurrently.
    const std::string base_tag = spec.tag;
    std::vector<std::uint64_t> ids;
    for (long j = 0; j < jobs; ++j) {
      svc::JobSpec s = spec;
      if (jobs > 1) s.tag = (base_tag.empty() ? "job" : base_tag) + "-" + std::to_string(j + 1);
      const svc::JobTicket ticket = client.submit(s);
      if (!ticket.accepted) {
        std::fprintf(stderr, "job %ld rejected: %s\n", j + 1, ticket.reason.c_str());
        return 4;
      }
      std::printf("job %llu accepted (root=%d level=%d tag=%s)\n",
                  static_cast<unsigned long long>(ticket.job_id), s.root, s.level,
                  s.tag.c_str());
      ids.push_back(ticket.job_id);
    }

    if (cancel_after_ms >= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(cancel_after_ms));
      for (const std::uint64_t id : ids) {
        const svc::JobStatusInfo info = client.cancel(id);
        std::printf("job %llu cancel requested (state now %s)\n",
                    static_cast<unsigned long long>(id), svc::to_string(info.state));
      }
    }

    // Local reference for --verify: one sequential solve serves every job of
    // the identical spec.
    std::vector<double> reference;
    if (verify) {
      transport::ProgramConfig config;
      config.root = spec.root;
      config.level = spec.level;
      config.le_tol = spec.le_tol;
      reference = transport::solve_sequential(config).combined.data();
    }

    int failures = 0;
    for (const std::uint64_t id : ids) {
      const svc::JobStatusInfo status =
          client.wait_terminal(id, std::chrono::milliseconds(timeout_ms));
      const svc::JobResultData result = client.result(id);
      std::printf("job %llu: %s, %llu/%llu terms, %.3f s queued, %.3f s running\n",
                  static_cast<unsigned long long>(id), svc::to_string(status.state),
                  static_cast<unsigned long long>(status.terms_done),
                  static_cast<unsigned long long>(status.terms_total),
                  status.queue_wait_seconds, status.run_seconds);
      if (status.state == svc::JobState::Failed) {
        std::printf("  error: %s\n", status.error.c_str());
        ++failures;
      }
      if (verify && status.state == svc::JobState::Done) {
        const bool identical = result.combined_nodes == reference;
        std::printf("  verify: %s\n",
                    identical ? "bit-identical to the sequential program" : "MISMATCH");
        if (!identical) ++failures;
      }
      if (!report_dir.empty() && !result.report_json.empty()) {
        const std::string path = report_dir + "/job_" + std::to_string(id) + ".json";
        if (obs::write_text_file(path, result.report_json)) {
          std::printf("  report: %s\n", path.c_str());
        }
      }
    }
    if (stats) print_stats();
    return failures == 0 ? 0 : 1;
  } catch (const svc::ClientError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  }
}
