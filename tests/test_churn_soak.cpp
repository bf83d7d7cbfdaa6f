// Tier-2 churn soak: 8 concurrent tenant jobs over a TCP fleet of 4 forked
// worker processes that loses half its workers mid-run (one graceful leave,
// one crash, each while every lane is inside a task) and regains them via
// reconnect, while the service's lane fleet is resized up and back down.  The
// leases the disrupts cost must come back through the engine's retries;
// every completed job must stay bit-identical to a standalone sequential
// run, the fleet ledger must record the churn, and the whole stack must
// return every fd.
//
// Fork discipline: the worker listener is bound and the workers forked
// before the RemoteEndpoint or the JobServer exists (both spawn threads).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/remote_worker.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/churn.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "soak_util.hpp"
#include "svc/client.hpp"
#include "svc/job_server.hpp"
#include "svc/stats.hpp"
#include "transport/seq_solver.hpp"

namespace {

using namespace mg;
using namespace std::chrono_literals;
using mg::tests::open_fd_count;

std::vector<double> sequential_nodes(int root, int level, double le_tol) {
  transport::ProgramConfig config;
  config.root = root;
  config.level = level;
  config.le_tol = le_tol;
  return transport::solve_sequential(config).combined.data();
}

TEST(ChurnSoak, EightTenantsSurviveLosingAndRegainingHalfTheFleet) {
  const std::size_t fds_before = open_fd_count();
  {
    // 1. Fork the fleet while single-threaded.
    net::TcpListener worker_listener("127.0.0.1", 0);
    const std::uint16_t worker_port = worker_listener.port();
    const auto pids = net::fork_worker_processes(4, [&worker_listener, worker_port] {
      worker_listener.close();
      return mw::run_subsolve_worker("127.0.0.1", worker_port);
    });

    // 2. A disrupted channel fails the trips it carried; the engine's
    //    attempt loop re-submits them.  The link is emulated at 10 ms (every
    //    Work frame waits on the loop's timer before it is sent, as in
    //    net_bench), so a lease stays on the wire long enough for a disrupt
    //    fired while four lanes are busy to find one: on bare loopback a
    //    level-4 lease can finish before the disrupt runs, and both disrupts
    //    missed in 3 of 30 runs without the delay (0 of 60 with it).
    fault::FaultPlanConfig link;
    link.net_slow = 1.0;
    link.net_delay = 10ms;
    const fault::FaultPlan link_plan(link);
    net::RemoteEndpointConfig ep_config;
    ep_config.round_trip_deadline = 30'000ms;
    ep_config.faults = &link_plan;
    net::RemoteEndpoint endpoint(std::move(worker_listener), ep_config);
    ASSERT_TRUE(endpoint.wait_for_workers(4, 15s));

    svc::JobServerConfig server_config;
    server_config.engine.lanes = 4;
    server_config.engine.remote = &endpoint;
    server_config.engine.admission.max_running = 4;
    server_config.engine.admission.max_queued = 8;
    server_config.engine.retry.max_attempts = 12;
    server_config.engine.retry.backoff_initial = 2ms;
    svc::JobServer server(server_config);
    const std::uint16_t port = server.port();

    // 3. Mid-run churn: take down half the worker fleet (one leave, one
    //    crash — both reconnect on their own), each only once four lanes are
    //    inside a task so it lands on live leases, and bounce the lane fleet
    //    4 -> 6 -> 4.
    const auto await_four_busy_lanes = [&server] {
      const auto until = std::chrono::steady_clock::now() + 60s;
      while (server.engine().busy_lanes() < 4 && std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(1ms);
      }
    };
    std::thread churner([&] {
      await_four_busy_lanes();
      endpoint.disrupt(/*graceful=*/true);
      server.engine().resize(6);
      await_four_busy_lanes();
      endpoint.disrupt(/*graceful=*/false);
      std::this_thread::sleep_for(150ms);
      server.engine().resize(4);
    });

    // 4. Eight tenants on eight connections.
    struct Outcome {
      svc::JobState state = svc::JobState::Queued;
      bool identical = false;
      std::string error;
    };
    std::vector<Outcome> outcomes(8);
    const int levels[3] = {4, 5, 6};
    const double tols[2] = {1e-3, 5e-4};

    std::vector<std::thread> tenants;
    for (int j = 0; j < 8; ++j) {
      tenants.emplace_back([&, j] {
        Outcome& out = outcomes[static_cast<std::size_t>(j)];
        try {
          svc::JobClient client("127.0.0.1", port);
          svc::JobSpec spec;
          spec.root = 2;
          spec.level = levels[j % 3];
          spec.le_tol = tols[j % 2];
          spec.tag = "tenant-" + std::to_string(j);
          const svc::JobTicket ticket = client.submit(spec);
          if (!ticket.accepted) {
            out.error = "rejected: " + ticket.reason;
            return;
          }
          const svc::JobStatusInfo status =
              client.wait_terminal(ticket.job_id, 180'000ms);
          out.state = status.state;
          out.error = status.error;
          if (status.state == svc::JobState::Done) {
            const svc::JobResultData result = client.result(ticket.job_id);
            out.identical =
                result.combined_nodes == sequential_nodes(spec.root, spec.level, spec.le_tol);
          }
        } catch (const svc::ClientError& e) {
          out.error = e.what();
        }
      });
    }
    for (auto& t : tenants) t.join();
    churner.join();

    for (int j = 0; j < 8; ++j) {
      const Outcome& out = outcomes[static_cast<std::size_t>(j)];
      EXPECT_EQ(out.state, svc::JobState::Done) << "tenant " << j << ": " << out.error;
      EXPECT_TRUE(out.identical) << "tenant " << j << " not bit-identical";
    }

    // The churn actually happened and the ledger recorded it: the two
    // disrupts on the wire cost live leases that the engine retried, the
    // workers' reconnect joins, and the lane resize folded into the service
    // view.
    const net::RemoteCounters nc = endpoint.counters();
    EXPECT_EQ(nc.fleet_leaves, 1u);
    EXPECT_EQ(nc.fleet_crashes, 1u);
    EXPECT_GE(nc.round_trips_failed, 1u) << "the disrupts never hit a live lease";
    EXPECT_GE(server.engine().counters().task_retries, 1u);
    EXPECT_GE(nc.fleet_joins, 6u) << "4 initial Hellos + 2 reconnects";
    const fleet::FleetCounters fc = server.engine().fleet_counters();
    EXPECT_GE(fc.joins, 2u + nc.fleet_joins) << "2 lane joins + endpoint joins";
    EXPECT_GE(fc.leaves, 2u + 1u) << "2 lane retires + 1 wire leave";
    EXPECT_EQ(server.engine().lanes(), 4u);

    // The fleet section travels through the live-stats endpoint too.
    {
      svc::JobClient client("127.0.0.1", port);
      const svc::ServiceStats stats = client.stats();
      EXPECT_EQ(stats.fleet.joins, fc.joins);
      EXPECT_EQ(stats.fleet.leaves, server.engine().fleet_counters().leaves);
    }

    server.shutdown();
    endpoint.shutdown();
    EXPECT_EQ(net::wait_worker_processes(pids), 0);
  }
  // Server listener, sessions, endpoint channels, self-pipes: all returned.
  EXPECT_EQ(open_fd_count(), fds_before);
}

}  // namespace
