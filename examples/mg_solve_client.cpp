// Client CLI for the solve service: submits jobs, polls status, fetches the
// combined result — and can verify bit-identity against a local sequential
// run of the same spec (the §6 claim carried over to multi-tenancy).
//
// Usage:
//   mg_solve_client --connect=HOST:PORT [root] [level] [le_tol]
//                   [--jobs=N] [--priority=P] [--weight=W] [--tag=S]
//                   [--faults=SPEC] [--cancel-after-ms=N] [--verify]
//                   [--report-dir=DIR] [--ping] [--timeout-ms=N]
//                   [--stats] [--stats-format=json|prom]
//
// --jobs=N            submit N jobs of this spec (tags suffixed -1..-N) and
//                     wait for all of them.
// --cancel-after-ms=N cancel each job N ms after submission (lifecycle demo).
// --verify            run solve_sequential locally and require the service's
//                     combined nodes to be byte-identical.
// --report-dir=DIR    write each job's self-contained report to
//                     DIR/job_<id>.json.
// --ping              round-trip one Ping first and print the latency.
// --stats             fetch the server's live service stats and print them to
//                     stdout (scheduler depth, lane utilization, per-tenant
//                     queue/running detail, latency histograms).  Without a
//                     spec this is the whole run; with one, stats print after
//                     the jobs finish (so the tenant view reflects them).
// --stats-format=F    stats rendering: json (default) or prom (Prometheus
//                     text exposition).
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json_writer.hpp"
#include "solver_cli.hpp"
#include "svc/client.hpp"
#include "svc/stats.hpp"
#include "transport/seq_solver.hpp"

namespace {

int bad_value(const char* what, const char* value, const char* want) {
  std::fprintf(stderr, "bad %s'%s' (want %s)\n", what, value, want);
  return 2;
}

bool parse_int(const char* s, int& out) {
  long n = 0;
  if (!mg::examples::cli_detail::parse_long(s, n) || !std::in_range<int>(n)) return false;
  out = static_cast<int>(n);
  return true;
}

}  // namespace

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
  int positional = 0;

  using examples::cli_detail::parse_count;
  using examples::cli_detail::parse_double;
  using examples::cli_detail::starts_with;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (starts_with(argv[i], "--connect=", v)) {
      if (!examples::parse_host_port(v, connect_host, connect_port)) {
        std::fprintf(stderr, "bad --connect spec '%s' (want HOST:PORT)\n", v);
        return 2;
      }
    } else if (starts_with(argv[i], "--jobs=", v)) {
      if (!parse_count(v, jobs)) return bad_value("--jobs=", v, "a positive integer");
    } else if (starts_with(argv[i], "--priority=", v)) {
      if (!parse_int(v, spec.priority)) return bad_value("--priority=", v, "an integer");
    } else if (starts_with(argv[i], "--weight=", v)) {
      if (!parse_double(v, spec.weight)) return bad_value("--weight=", v, "a number");
    } else if (starts_with(argv[i], "--tag=", v)) {
      spec.tag = v;
    } else if (starts_with(argv[i], "--faults=", v)) {
      spec.fault_spec = v;
    } else if (starts_with(argv[i], "--cancel-after-ms=", v)) {
      if (!parse_count(v, cancel_after_ms)) {
        return bad_value("--cancel-after-ms=", v, "a non-negative integer");
      }
    } else if (starts_with(argv[i], "--timeout-ms=", v)) {
      if (!parse_count(v, timeout_ms)) return bad_value("--timeout-ms=", v, "a non-negative integer");
    } else if (starts_with(argv[i], "--report-dir=", v)) {
      report_dir = v;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--ping") == 0) {
      ping = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (starts_with(argv[i], "--stats-format=", v)) {
      stats_format = v;
      if (stats_format != "json" && stats_format != "prom") {
        std::fprintf(stderr, "bad --stats-format '%s' (want json or prom)\n", v);
        return 2;
      }
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    } else if (positional == 0) {
      if (!parse_int(argv[i], spec.root)) return bad_value("root ", argv[i], "an integer");
      ++positional;
    } else if (positional == 1) {
      if (!parse_int(argv[i], spec.level)) return bad_value("level ", argv[i], "an integer");
      ++positional;
    } else if (positional == 2) {
      if (!parse_double(argv[i], spec.le_tol)) return bad_value("le_tol ", argv[i], "a number");
      ++positional;
    } else {
      std::fprintf(stderr, "unexpected extra argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (connect_port == 0) {
    std::fprintf(stderr, "--connect=HOST:PORT is required\n");
    return 2;
  }
  if (jobs < 1) {
    std::fprintf(stderr, "--jobs must be >= 1\n");
    return 2;
  }

  try {
    svc::JobClient client(connect_host, connect_port);

    if (ping) {
      const auto rtt = client.ping();
      std::printf("ping: %lld us\n", static_cast<long long>(rtt.count()));
      // A bare liveness probe: no spec given means nothing to submit.
      if (positional == 0 && !stats) return 0;
    }

    const auto print_stats = [&client, &stats_format] {
      const svc::ServiceStats s = client.stats();
      const std::string text = stats_format == "prom" ? svc::service_stats_prometheus(s)
                                                      : svc::service_stats_json(s);
      std::fputs(text.c_str(), stdout);
      if (text.empty() || text.back() != '\n') std::fputc('\n', stdout);
    };

    // A bare stats scrape: no spec given means nothing to submit.
    if (stats && positional == 0) {
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
