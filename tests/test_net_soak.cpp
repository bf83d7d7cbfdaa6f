// Tier-2 soak of the TCP substrate with real forked worker processes: a
// 4-process × 200-task frame soak under seeded frame faults, fd-leak
// accounting, and solver runs over fork+TCP that must stay bit-identical to
// the threaded backend both fault-free and under a seeded frame-fault plan.
//
// Everything here forks, so the suite is labeled tier2 and each test forks
// its workers *before* the endpoint (and hence any thread) exists.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_solver.hpp"
#include "core/remote_worker.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "soak_util.hpp"
#include "transport/seq_solver.hpp"

namespace {

using namespace mg;
using namespace std::chrono_literals;
using mg::tests::open_fd_count;

/// The deterministic per-task transform the echo workers apply, mirrored on
/// the master side to check results: reverse the payload and add the task
/// ordinal to every byte.
std::vector<std::uint8_t> expected_reply(const std::vector<std::uint8_t>& work) {
  std::vector<std::uint8_t> reply(work.rbegin(), work.rend());
  for (auto& b : reply) b = static_cast<std::uint8_t>(b + work.size() % 251);
  return reply;
}

int run_echo_worker(const std::string& host, std::uint16_t port) {
  return net::run_worker_loop(host, port, [](const std::vector<std::uint8_t>& work) {
    return expected_reply(work);
  });
}

std::vector<std::uint8_t> task_payload(int task) {
  std::vector<std::uint8_t> work(64 + task % 191);
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i] = static_cast<std::uint8_t>((task * 131 + i * 7) & 0xFF);
  }
  return work;
}

TEST(NetSoak, FourProcessesTwoHundredTasksUnderFrameFaultsLeakNoFds) {
  const std::size_t fds_before = open_fd_count();
  {
    net::TcpListener listener("127.0.0.1", 0);
    const std::uint16_t port = listener.port();
    const auto pids = net::fork_worker_processes(4, [&listener, port] {
      listener.close();
      return run_echo_worker("127.0.0.1", port);
    });

    fault::FaultPlanConfig fault_config;
    fault_config.seed = 20040;
    fault_config.net_drop = 0.05;
    fault_config.net_truncate = 0.05;
    fault_config.net_slow = 0.10;
    fault_config.net_delay = 5ms;
    const fault::FaultPlan plan(fault_config);

    net::RemoteEndpointConfig config;
    config.round_trip_deadline = 500ms;
    config.faults = &plan;
    net::RemoteEndpoint endpoint(std::move(listener), config);
    ASSERT_TRUE(endpoint.wait_for_workers(4, 15s));

    // 4 client threads × 50 tasks; a faulted trip fails and is retried with
    // the same payload (consuming a fresh transfer ordinal), exactly like the
    // proxy workers' crash/retry path, so every task must eventually land.
    std::atomic<int> wrong{0};
    std::atomic<int> exhausted{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&endpoint, &wrong, &exhausted, t] {
        for (int i = 0; i < 50; ++i) {
          const auto work = task_payload(t * 50 + i);
          net::RemoteEndpoint::RoundTrip trip;
          bool done = false;
          for (int attempt = 0; attempt < 20 && !done; ++attempt) {
            trip = endpoint.round_trip(work);
            done = trip.ok;
          }
          if (!done) {
            exhausted.fetch_add(1);
          } else if (trip.payload != expected_reply(work)) {
            wrong.fetch_add(1);
          }
        }
      });
    }
    for (auto& c : clients) c.join();

    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(exhausted.load(), 0);

    const net::RemoteCounters counters = endpoint.counters();
    EXPECT_GE(counters.round_trips_ok, 200u);
    // The seed must actually have exercised all three frame-fault kinds.
    EXPECT_GT(counters.faults_dropped, 0u);
    EXPECT_GT(counters.faults_truncated, 0u);
    EXPECT_GT(counters.faults_delayed, 0u);
    // Every injected drop/truncate killed its channel and failed its trip;
    // every failed trip was retried to success above.  (Reconnects lag the
    // closes — a worker whose channel just died may not be back yet when
    // this snapshot is taken — so only a lower bound is asserted there.)
    EXPECT_GE(counters.round_trips_failed,
              counters.faults_dropped + counters.faults_truncated);
    EXPECT_GT(counters.reconnects, 0u);

    endpoint.shutdown();
    EXPECT_EQ(net::wait_worker_processes(pids), 0);
  }
  // Listener, channels, event-loop self-pipe, worker pipes: all returned.
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(NetSoak, PipelinedFourDeepTwoHundredTasksUnderFrameFaultsLeakNoFds) {
  // The pipelined variant of the soak above: 8 client threads against 4
  // forked workers with an explicit depth-4 window, so every channel runs
  // with multiple seq-tagged frames in flight while the fault plan drops,
  // truncates and delays frames mid-window.  Same obligations: every task
  // lands (retried through faults), every reply matches, no fd leaks.
  const std::size_t fds_before = open_fd_count();
  {
    net::TcpListener listener("127.0.0.1", 0);
    const std::uint16_t port = listener.port();
    const auto pids = net::fork_worker_processes(4, [&listener, port] {
      listener.close();
      return run_echo_worker("127.0.0.1", port);
    });

    fault::FaultPlanConfig fault_config;
    fault_config.seed = 20041;
    fault_config.net_drop = 0.05;
    fault_config.net_truncate = 0.05;
    fault_config.net_slow = 0.10;
    fault_config.net_delay = 5ms;
    const fault::FaultPlan plan(fault_config);

    net::RemoteEndpointConfig config;
    config.round_trip_deadline = 500ms;
    config.faults = &plan;
    config.pipeline_depth = 4;
    net::RemoteEndpoint endpoint(std::move(listener), config);
    ASSERT_TRUE(endpoint.wait_for_workers(4, 15s));

    std::atomic<int> wrong{0};
    std::atomic<int> exhausted{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 8; ++t) {
      clients.emplace_back([&endpoint, &wrong, &exhausted, t] {
        for (int i = 0; i < 25; ++i) {
          const auto work = task_payload(t * 25 + i);
          net::RemoteEndpoint::RoundTrip trip;
          bool done = false;
          for (int attempt = 0; attempt < 20 && !done; ++attempt) {
            trip = endpoint.round_trip(work);
            done = trip.ok;
          }
          if (!done) {
            exhausted.fetch_add(1);
          } else if (trip.payload != expected_reply(work)) {
            wrong.fetch_add(1);
          }
        }
      });
    }
    for (auto& c : clients) c.join();

    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(exhausted.load(), 0);

    const net::RemoteCounters counters = endpoint.counters();
    EXPECT_GE(counters.round_trips_ok, 200u);
    EXPECT_GT(counters.faults_dropped, 0u);
    EXPECT_GT(counters.faults_truncated, 0u);
    EXPECT_GT(counters.faults_delayed, 0u);
    // A dropped frame's deadline (and a truncate's close) fails not just its
    // own trip but every other lease riding the same channel — those are
    // requeued or failed and retried — so failures may exceed injections,
    // never undercut them.
    EXPECT_GE(counters.round_trips_failed,
              counters.faults_dropped + counters.faults_truncated);
    EXPECT_GT(counters.reconnects, 0u);

    endpoint.shutdown();
    EXPECT_EQ(net::wait_worker_processes(pids), 0);
  }
  EXPECT_EQ(open_fd_count(), fds_before);
}

// ---- solver bit-identity over real fork + TCP ---------------------------------------

transport::ProgramConfig soak_program() {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 2;
  return program;
}

TEST(NetSoak, SolverOverForkedTcpWorkersIsBitIdenticalToThreadedBackend) {
  const auto program = soak_program();
  const auto seq = transport::solve_sequential(program);
  const auto threaded = mw::solve_concurrent(program, {});

  net::TcpListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  const auto pids = net::fork_worker_processes(4, [&listener, port] {
    listener.close();
    return mw::run_subsolve_worker("127.0.0.1", port);
  });
  net::RemoteEndpoint endpoint(std::move(listener));
  ASSERT_TRUE(endpoint.wait_for_workers(4, 15s));

  mw::ConcurrentOptions options;
  options.remote = &endpoint;
  const auto remote = mw::solve_concurrent(program, options);

  EXPECT_EQ(remote.solve.combined.max_diff(seq.combined), 0.0);
  EXPECT_EQ(remote.solve.combined.max_diff(threaded.solve.combined), 0.0);
  EXPECT_EQ(endpoint.counters().round_trips_failed, 0u);

  endpoint.shutdown();
  EXPECT_EQ(net::wait_worker_processes(pids), 0);
}

TEST(NetSoak, SolverOverFaultyTcpRetriesAndStaysBitIdentical) {
  const auto program = soak_program();
  const auto seq = transport::solve_sequential(program);

  net::TcpListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  const auto pids = net::fork_worker_processes(4, [&listener, port] {
    listener.close();
    return mw::run_subsolve_worker("127.0.0.1", port);
  });

  fault::FaultPlanConfig fault_config;
  fault_config.seed = 7;
  fault_config.net_drop = 0.2;
  fault_config.net_truncate = 0.15;
  fault_config.net_slow = 0.2;
  fault_config.net_delay = 30ms;
  const fault::FaultPlan plan(fault_config);

  net::RemoteEndpointConfig config;
  config.round_trip_deadline = 2000ms;
  config.faults = &plan;
  net::RemoteEndpoint endpoint(std::move(listener), config);
  ASSERT_TRUE(endpoint.wait_for_workers(4, 15s));

  mw::ConcurrentOptions options;
  options.remote = &endpoint;
  options.retry.max_attempts = 10;
  options.retry.backoff_initial = 2ms;
  const auto remote = mw::solve_concurrent(program, options);

  EXPECT_EQ(remote.solve.combined.max_diff(seq.combined), 0.0);
  EXPECT_EQ(remote.protocol.faults.abandoned, 0u);

  endpoint.shutdown();
  EXPECT_EQ(net::wait_worker_processes(pids), 0);
}

TEST(NetSoak, DegradedRemotePoolOverFaultyTcpFallsBackToLocalRecompute) {
  // respawn_budget 0 + every Work frame dropped: every slot is abandoned on
  // its first failure and the master recomputes all grids locally — over a
  // real forked transport, the WorkAbandoned slot→term mapping (LPT order)
  // must still come out bit-exact.
  const auto program = soak_program();
  const auto seq = transport::solve_sequential(program);

  net::TcpListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  const auto pids = net::fork_worker_processes(2, [&listener, port] {
    listener.close();
    return mw::run_subsolve_worker("127.0.0.1", port);
  });

  fault::FaultPlanConfig fault_config;
  fault_config.seed = 13;
  fault_config.net_drop = 1.0;
  const fault::FaultPlan plan(fault_config);

  net::RemoteEndpointConfig config;
  config.round_trip_deadline = 200ms;
  config.faults = &plan;
  net::RemoteEndpoint endpoint(std::move(listener), config);
  ASSERT_TRUE(endpoint.wait_for_workers(2, 15s));

  mw::ConcurrentOptions options;
  options.remote = &endpoint;
  options.retry.max_attempts = 1;
  options.retry.respawn_budget = 0;
  const auto remote = mw::solve_concurrent(program, options);

  EXPECT_TRUE(remote.protocol.faults.degraded);
  EXPECT_GT(remote.protocol.faults.abandoned, 0u);
  EXPECT_EQ(remote.solve.combined.max_diff(seq.combined), 0.0);

  endpoint.shutdown();
  EXPECT_EQ(net::wait_worker_processes(pids), 0);
}

}  // namespace
