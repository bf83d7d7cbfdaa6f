// Tests for the elastic worker fleet: the seeded ChurnPlan and its spec
// parser, the shared FleetCounters contract, churn applied to the threaded
// pool (protocol level and full solve), the virtual-time elastic simulator
// (determinism + exactly-once completion), and the worker reconnect
// failure-budget regression.  TCP churn lives with the endpoint's own tests
// (test_net.cpp).  The one invariant everything
// here asserts from a different angle: however much the fleet churns, every
// work unit is combined exactly once and results stay bit-identical to the
// fault-free sequential solve.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "core/concurrent_solver.hpp"
#include "core/master.hpp"
#include "core/protocol.hpp"
#include "core/worker.hpp"
#include "fleet/churn.hpp"
#include "manifold/runtime.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "transport/seq_solver.hpp"

namespace {

using namespace mg;
using namespace std::chrono_literals;
using iwim::Unit;

// ---- ChurnPlan ----------------------------------------------------------------------

TEST(ChurnPlan, ScheduleIsDeterministicSortedAndBounded) {
  fleet::ChurnPlanConfig config;
  config.seed = 7;
  config.joins = 3;
  config.leaves = 2;
  config.crashes = 2;
  config.start_seconds = 0.25;
  config.spread_seconds = 1.5;
  const fleet::ChurnPlan a(config), b(config);
  ASSERT_EQ(a.events().size(), 7u);
  ASSERT_EQ(b.events().size(), 7u);

  std::size_t joins = 0, leaves = 0, crashes = 0;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const auto& e = a.events()[i];
    EXPECT_EQ(e.kind, b.events()[i].kind);
    EXPECT_DOUBLE_EQ(e.at_seconds, b.events()[i].at_seconds);
    EXPECT_GE(e.at_seconds, config.start_seconds);
    EXPECT_LT(e.at_seconds, config.start_seconds + config.spread_seconds);
    if (i > 0) {
      EXPECT_GE(e.at_seconds, a.events()[i - 1].at_seconds);
    }
    joins += e.kind == fleet::ChurnEventKind::Join;
    leaves += e.kind == fleet::ChurnEventKind::Leave;
    crashes += e.kind == fleet::ChurnEventKind::Crash;
  }
  EXPECT_EQ(joins, config.joins);
  EXPECT_EQ(leaves, config.leaves);
  EXPECT_EQ(crashes, config.crashes);

  config.seed = 8;
  const fleet::ChurnPlan other(config);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    any_differs = any_differs || a.events()[i].kind != other.events()[i].kind ||
                  a.events()[i].at_seconds != other.events()[i].at_seconds;
  }
  EXPECT_TRUE(any_differs) << "a different seed must produce a different schedule";
}

TEST(ChurnPlan, SpecParsingRoundTripsAndRejectsGarbage) {
  const auto config =
      fleet::parse_churn_spec("seed=7,joins=2,leaves=1,crashes=1,start=0.05,spread=0.4");
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.joins, 2u);
  EXPECT_EQ(config.leaves, 1u);
  EXPECT_EQ(config.crashes, 1u);
  EXPECT_DOUBLE_EQ(config.start_seconds, 0.05);
  EXPECT_DOUBLE_EQ(config.spread_seconds, 0.4);
  EXPECT_TRUE(config.any());
  EXPECT_FALSE(fleet::parse_churn_spec("").any());
  EXPECT_THROW(fleet::parse_churn_spec("bogus_key=1"), std::invalid_argument);
  EXPECT_THROW(fleet::parse_churn_spec("joins"), std::invalid_argument);
  EXPECT_THROW(fleet::parse_churn_spec("joins=abc"), std::invalid_argument);
}

TEST(FleetCounters, AccumulateAndReportAny) {
  fleet::FleetCounters a;
  EXPECT_FALSE(a.any());
  fleet::FleetCounters b;
  b.joins = 2;
  b.crashes = 1;
  b.duplicates = 3;
  a += b;
  a += b;
  EXPECT_EQ(a.joins, 4u);
  EXPECT_EQ(a.crashes, 2u);
  EXPECT_EQ(a.duplicates, 6u);
  EXPECT_TRUE(a.any());
}

// ---- the threaded pool under churn ---------------------------------------------------

/// One pool of doubler workers that each hold their unit for `hold`, so a
/// churn schedule inside the hold window always finds running victims.
struct ChurnToyRun {
  std::int64_t total = 0;
  std::size_t abandoned = 0;
  mw::ProtocolStats stats;
};

ChurnToyRun run_churned_pool(std::size_t workers, std::chrono::milliseconds hold,
                             const fleet::ChurnPlanConfig& churn) {
  iwim::Runtime runtime;
  ChurnToyRun run;
  auto master =
      mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
        api.create_pool();
        for (std::size_t k = 0; k < workers; ++k) {
          api.create_worker();
          api.send_work(Unit::of(static_cast<std::int64_t>(k)));
        }
        for (std::size_t k = 0; k < workers; ++k) {
          const Unit unit = api.collect_result();
          if (unit.is<mw::WorkAbandoned>()) {
            ++run.abandoned;
          } else {
            run.total += unit.as<std::int64_t>();
          }
        }
        api.rendezvous();
        api.finished();
      });
  mw::RunOptions options;
  options.retry.max_attempts = 8;
  options.retry.backoff_initial = 2ms;
  options.churn = churn;
  run.stats = mw::run_main_program(
      runtime, master, mw::make_worker_factory([hold](const Unit& u) {
        std::this_thread::sleep_for(hold);
        return Unit::of(u.as<std::int64_t>() * 2);
      }),
      options);
  runtime.shutdown();
  return run;
}

TEST(ChurnPool, LeaveAndCrashEventsReLeaseWithoutLosingAUnit) {
  fleet::ChurnPlanConfig churn;
  churn.seed = 13;
  churn.leaves = 2;
  churn.crashes = 1;
  churn.start_seconds = 0.01;
  churn.spread_seconds = 0.05;
  // Workers hold their unit well past the churn window, so every event finds
  // a running victim and its unit must be re-leased.
  const ChurnToyRun run = run_churned_pool(8, 150ms, churn);
  EXPECT_EQ(run.abandoned, 0u);
  EXPECT_EQ(run.total, 2 * (7 * 8 / 2));  // 2 * sum(0..7): every unit exactly once
  EXPECT_EQ(run.stats.fleet.leaves, 2u);
  EXPECT_EQ(run.stats.fleet.crashes, 1u);
  EXPECT_EQ(run.stats.faults.retries, 3u) << "each killed lease re-issued exactly once";
}

TEST(ChurnSolve, ThreadsChurnKeepsTheSolveBitExact) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 5;
  const auto seq = transport::solve_sequential(program);

  mw::ConcurrentOptions options;
  options.churn = fleet::ChurnPlanConfig{};
  options.churn->seed = 7;
  options.churn->leaves = 2;
  options.churn->crashes = 1;
  options.churn->start_seconds = 0.0;
  options.churn->spread_seconds = 0.05;
  const auto conc = mw::solve_concurrent(program, options);

  // Bit-identity holds whether or not the run outlived the churn window;
  // the event counts are bounded by the plan either way.
  EXPECT_EQ(conc.solve.combined.max_diff(seq.combined), 0.0);
  EXPECT_LE(conc.protocol.fleet.leaves, 2u);
  EXPECT_LE(conc.protocol.fleet.crashes, 1u);
  EXPECT_FALSE(conc.protocol.timed_out);
}

// ---- the virtual-time elastic simulator ----------------------------------------------

/// The level-8 storm of the simulator tests.  The level-8 event horizon (the
/// last term's completion time, before the constant collect/prolongation
/// overheads) is well under a virtual second, so the storm must land very
/// early to fire before the run drains.
fleet::ChurnPlanConfig level8_storm() {
  fleet::ChurnPlanConfig churn;
  churn.seed = 2004;
  churn.joins = 3;
  churn.leaves = 2;
  churn.crashes = 2;
  churn.start_seconds = 0.05;
  churn.spread_seconds = 0.2;
  return churn;
}

/// Exactly-once completion: the sim's analogue of bit-identity.
void expect_each_term_once(const cluster::ChurnSimResult& run) {
  ASSERT_EQ(run.completion_order.size(), run.terms_total);
  std::vector<std::size_t> sorted = run.completion_order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ChurnSim, ElasticRunIsDeterministicAndCompletesEveryTermOnce) {
  const cluster::AthlonCostModel cost;
  const cluster::SimConfig config;
  const fleet::ChurnPlanConfig churn = level8_storm();

  const auto a = cluster::simulate_churn_run(2, 8, 1e-3, cost, config, churn);
  const auto b = cluster::simulate_churn_run(2, 8, 1e-3, cost, config, churn);

  EXPECT_DOUBLE_EQ(a.concurrent_seconds, b.concurrent_seconds);
  EXPECT_EQ(a.completion_order, b.completion_order);
  EXPECT_EQ(a.fleet.joins, b.fleet.joins);
  EXPECT_EQ(a.faults.retries, b.faults.retries);

  expect_each_term_once(a);
  EXPECT_EQ(a.fleet.joins, churn.joins);
  EXPECT_EQ(a.fleet.leaves + a.fleet.crashes, churn.leaves + churn.crashes);
  EXPECT_GT(a.peak_machines, 0);
  EXPECT_GT(a.weighted_machines, 0.0);
  EXPECT_FALSE(a.machines.times.empty());
}

TEST(ChurnSim, EachLostLeaseIsOneLedgerRetry) {
  // The storm lands while level-8 terms are still in flight, so every leave
  // and crash takes a busy host's lease.
  const cluster::AthlonCostModel cost;
  const cluster::SimConfig config;
  const auto run = cluster::simulate_churn_run(2, 8, 1e-3, cost, config, level8_storm());
  ASSERT_EQ(run.fleet.leaves + run.fleet.crashes, 4u);
  EXPECT_EQ(run.faults.retries, run.fleet.leaves + run.fleet.crashes);
  EXPECT_EQ(run.faults.timeouts, run.fleet.crashes) << "a crash is found at its deadline";
  EXPECT_EQ(run.faults.abandoned, 0u);
  EXPECT_FALSE(run.faults.degraded);
  expect_each_term_once(run);
}

TEST(ChurnSim, SpentBudgetAbandonsTheLeaseToTheMaster) {
  const cluster::AthlonCostModel cost;
  cluster::SimConfig config;
  config.retry.respawn_budget = 0;
  const auto run = cluster::simulate_churn_run(2, 8, 1e-3, cost, config, level8_storm());
  ASSERT_EQ(run.fleet.leaves + run.fleet.crashes, 4u);
  EXPECT_EQ(run.faults.retries, 0u);
  EXPECT_EQ(run.faults.abandoned, run.fleet.leaves + run.fleet.crashes);
  EXPECT_TRUE(run.faults.degraded);
  expect_each_term_once(run);
}

TEST(ChurnSim, NoChurnDegeneratesToAFixedFleet) {
  const cluster::AthlonCostModel cost;
  const cluster::SimConfig config;
  const auto run =
      cluster::simulate_churn_run(2, 6, 1e-3, cost, config, fleet::ChurnPlanConfig{});
  EXPECT_FALSE(run.fleet.joins || run.fleet.leaves || run.fleet.crashes);
  EXPECT_EQ(run.completion_order.size(), run.terms_total);
  // A fixed fleet's machine series is one flat step: claimed at 0, held to
  // the end.
  EXPECT_EQ(run.peak_machines, run.machines.counts.front());
}

// ---- worker reconnect failure budget (regression) ------------------------------------

/// A TCP server that accepts and immediately RST-closes every connection —
/// the "listener is alive but nobody serves the protocol" failure mode
/// (master crashed, its port recycled by an unrelated process).
struct AcceptAndDropServer {
  net::TcpListener listener{"127.0.0.1", 0};
  std::atomic<bool> stop{false};
  std::thread thread;

  AcceptAndDropServer() {
    // Poll non-blocking: close() cannot wake a thread parked inside a
    // blocking accept(), so the loop must come up for air to see `stop`.
    listener.set_nonblocking(true);
    thread = std::thread([this] {
      while (!stop.load()) {
        net::Socket s = listener.accept();
        if (!s.valid()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        const linger lg{1, 0};  // RST on close: the handshake never lands
        ::setsockopt(s.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
        s.close();
      }
    });
  }
  ~AcceptAndDropServer() {
    stop.store(true);
    thread.join();
    listener.close();
  }
};

TEST(WorkerLoop, AcceptThenDropBurnsTheFailureBudget) {
  // Regression: the worker loop used to reset its failure budget on any
  // successful TCP connect, so a listener that accepted and dropped every
  // connection kept the worker reconnecting forever.  The budget must only
  // reset once the Hello handshake lands; against a drop-everything server
  // the worker has to give up.
  AcceptAndDropServer server;
  const std::uint16_t port = server.listener.port();
  auto worker = std::async(std::launch::async, [port] {
    return net::run_worker_loop("127.0.0.1", port,
                                [](const std::vector<std::uint8_t>& w) { return w; });
  });
  // RSTs race the Hello send, so the budget burns down over several rounds;
  // the bound is generous but the pre-fix loop never returns at all.
  ASSERT_EQ(worker.wait_for(60s), std::future_status::ready)
      << "worker loop must give up against a drop-everything listener";
  EXPECT_EQ(worker.get(), 0);
}

}  // namespace
