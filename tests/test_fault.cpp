// Tests for the fault-tolerance layer: the seeded FaultPlan, the shared
// RetryPolicy and the LeaseLedger that applies it, the supervised worker
// pool (crash / hang / corruption recovery, respawn budget, graceful
// degradation, a master dying mid-pool), the simulator mirror, the
// deadline-robust timed waits, and the run-report faults section.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "core/concurrent_solver.hpp"
#include "core/master.hpp"
#include "core/protocol.hpp"
#include "core/remote_worker.hpp"
#include "core/worker.hpp"
#include "fault/fault_plan.hpp"
#include "manifold/event.hpp"
#include "manifold/port.hpp"
#include "manifold/runtime.hpp"
#include "net/remote.hpp"
#include "obs/report.hpp"
#include "transport/seq_solver.hpp"

namespace {

using namespace mg;
using iwim::Unit;

// ---- FaultPlan & RetryPolicy ---------------------------------------------------------

TEST(FaultPlan, DecisionsAreDeterministicInTheSeed) {
  fault::FaultPlanConfig config;
  config.seed = 99;
  config.crash = 0.2;
  config.hang = 0.1;
  config.corrupt = 0.1;
  config.host_crash = 0.3;
  config.net_drop = 0.2;
  const fault::FaultPlan a(config), b(config);
  config.seed = 100;
  const fault::FaultPlan other(config);
  bool any_differs = false;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.worker_fault(k), b.worker_fault(k));
    EXPECT_EQ(a.host_crashes(k), b.host_crashes(k));
    EXPECT_EQ(a.drops_transfer(k), b.drops_transfer(k));
    any_differs = any_differs || a.worker_fault(k) != other.worker_fault(k);
  }
  EXPECT_TRUE(any_differs) << "a different seed must produce a different plan";
}

TEST(FaultPlan, InjectionRateTracksProbability) {
  fault::FaultPlanConfig config;
  config.crash = 0.25;
  const fault::FaultPlan plan(config);
  int crashes = 0;
  for (std::uint64_t k = 0; k < 4000; ++k) {
    if (plan.worker_fault(k) == fault::WorkerFault::Crash) ++crashes;
  }
  EXPECT_NEAR(crashes / 4000.0, 0.25, 0.03);
}

TEST(FaultPlan, SpecParsingRoundTrips) {
  const auto config =
      fault::parse_fault_spec("seed=7,crash=0.25,hang=0.1,corrupt=0.05,net_drop=0.2");
  EXPECT_EQ(config.seed, 7u);
  EXPECT_DOUBLE_EQ(config.crash, 0.25);
  EXPECT_DOUBLE_EQ(config.hang, 0.1);
  EXPECT_DOUBLE_EQ(config.corrupt, 0.05);
  EXPECT_DOUBLE_EQ(config.net_drop, 0.2);
  EXPECT_TRUE(config.any());
  EXPECT_FALSE(fault::parse_fault_spec("").any());
  EXPECT_THROW(fault::parse_fault_spec("bogus_key=1"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("crash"), std::invalid_argument);
}

TEST(RetryPolicy, BackoffIsCappedExponential) {
  fault::RetryPolicy policy;
  policy.backoff_initial = std::chrono::milliseconds(10);
  policy.backoff_multiplier = 2.0;
  policy.backoff_cap = std::chrono::milliseconds(70);
  EXPECT_EQ(policy.backoff_for(1).count(), 10);
  EXPECT_EQ(policy.backoff_for(2).count(), 20);
  EXPECT_EQ(policy.backoff_for(3).count(), 40);
  EXPECT_EQ(policy.backoff_for(4).count(), 70);  // capped
  EXPECT_EQ(policy.backoff_for(9).count(), 70);
}

TEST(RetryPolicy, DeadlineIsTheCostBoundFlooredByTheTaskDeadline) {
  fault::RetryPolicy policy;
  policy.deadline_cost_factor = 4.0;
  EXPECT_DOUBLE_EQ(policy.deadline_seconds(2.0), 8.0);
  policy.task_deadline = std::chrono::milliseconds(10000);
  EXPECT_DOUBLE_EQ(policy.deadline_seconds(2.0), 10.0);
}

// ---- LeaseLedger: the one lost-lease rule --------------------------------------------

enum class LedgerAnswer { Backoff, Now, Abandon };

struct LedgerStep {
  std::size_t attempt;  ///< the lost dispatch of one unit (1 = its first)
  bool graceful;
  LedgerAnswer expect;  ///< Backoff means backoff_for(attempt)
};

struct LedgerCase {
  const char* name;
  std::size_t max_attempts;
  std::size_t respawn_budget;
  std::vector<LedgerStep> steps;
};

TEST(LeaseLedger, AnswersEveryLostLeaseByTheRule) {
  constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);
  using A = LedgerAnswer;
  const std::vector<LedgerCase> cases = {
      {"three attempts back off twice, then abandon", 3, kUnlimited,
       {{1, false, A::Backoff}, {2, false, A::Backoff}, {3, false, A::Abandon}}},
      {"a graceful loss waits 0 but spends an attempt", 2, kUnlimited,
       {{1, true, A::Now}, {2, true, A::Abandon}}},
      {"a graceful loss spends the budget", 3, 1, {{1, true, A::Now}, {1, false, A::Abandon}}},
      {"a budget of 2 is shared across units", 3, 2,
       {{1, false, A::Backoff}, {1, false, A::Backoff}, {1, false, A::Abandon},
        {2, false, A::Abandon}}},
      {"budget 0 abandons the first loss", 3, 0, {{1, false, A::Abandon}}},
      {"max_attempts 0 behaves as 1", 0, kUnlimited,
       {{1, false, A::Abandon}, {1, true, A::Abandon}}},
  };
  for (const LedgerCase& c : cases) {
    SCOPED_TRACE(c.name);
    fault::RetryPolicy policy;
    policy.max_attempts = c.max_attempts;
    policy.respawn_budget = c.respawn_budget;
    fault::LeaseLedger ledger(policy);
    std::size_t retries = 0;
    std::size_t abandoned = 0;
    for (const LedgerStep& step : c.steps) {
      const auto wait = ledger.lost(step.attempt, step.graceful);
      if (step.expect == A::Abandon) {
        EXPECT_FALSE(wait.has_value()) << "attempt " << step.attempt;
        ++abandoned;
        continue;
      }
      ASSERT_TRUE(wait.has_value()) << "attempt " << step.attempt;
      const auto want = step.expect == A::Now ? std::chrono::milliseconds(0)
                                              : policy.backoff_for(step.attempt);
      EXPECT_EQ(wait->count(), want.count()) << "attempt " << step.attempt;
      ++retries;
    }
    const fault::FaultCounters& f = ledger.counters();
    EXPECT_EQ(f.retries, retries);
    EXPECT_EQ(f.abandoned, abandoned);
    EXPECT_EQ(f.degraded, abandoned > 0);
    EXPECT_EQ(f.crash_events + f.timeouts, 0u) << "detection stays with the owner";
  }
}

TEST(LeaseLedger, AbandonCountsWithoutSpendingTheBudget) {
  fault::RetryPolicy policy;
  policy.respawn_budget = 1;
  fault::LeaseLedger ledger(policy);
  ledger.abandon();  // a unit with no copy left to send
  EXPECT_EQ(ledger.counters().abandoned, 1u);
  EXPECT_TRUE(ledger.counters().degraded);
  EXPECT_TRUE(ledger.lost(1, /*graceful=*/false).has_value());
  EXPECT_EQ(ledger.counters().retries, 1u);
}

// ---- deadline-robust timed waits (Port::read_for / EventMemory::await_for) -----------

TEST(TimedWaits, ReadForWaitsTheFullDeadline) {
  iwim::Port port(nullptr, "in", iwim::Port::Direction::In);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(port.read_for(std::chrono::milliseconds(120)).has_value());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // A spurious wakeup (or a wake caused by an unrelated notify) must not cut
  // the timeout short: nullopt may only be returned after the deadline.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 120);
}

TEST(TimedWaits, ReadForTakesAUnitDepositedBeforeTheDeadline) {
  iwim::Port port(nullptr, "in", iwim::Port::Direction::In);
  std::thread depositor([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    port.deposit(Unit::of(std::int64_t{7}));
  });
  const auto unit = port.read_for(std::chrono::milliseconds(2000));
  depositor.join();
  ASSERT_TRUE(unit.has_value());
  EXPECT_EQ(unit->as<std::int64_t>(), 7);
}

TEST(TimedWaits, AwaitForWaitsTheFullDeadline) {
  iwim::EventMemory memory;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(memory.await_for({{"never", std::nullopt}}, std::chrono::milliseconds(120))
                   .has_value());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 120);
}

TEST(TimedWaits, AwaitForTakesAnOccurrenceDepositedBeforeTheDeadline) {
  iwim::EventMemory memory;
  std::thread depositor([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    memory.deposit({"ping", 1, "p"});
  });
  const auto occurrence =
      memory.await_for({{"ping", std::nullopt}}, std::chrono::milliseconds(2000));
  depositor.join();
  ASSERT_TRUE(occurrence.has_value());
  EXPECT_EQ(occurrence->event, "ping");
}

// ---- the supervised worker pool ------------------------------------------------------

struct ToyRun {
  std::int64_t total = 0;
  std::size_t abandoned = 0;
  mw::ProtocolStats stats;
};

/// Runs one pool of `workers` doubler workers under the given plan/policy.
ToyRun run_toy_pool(std::size_t workers, const fault::FaultPlanConfig& faults,
                    const fault::RetryPolicy& retry) {
  iwim::Runtime runtime;
  ToyRun run;
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
  auto plan = faults.any() ? std::make_shared<const fault::FaultPlan>(faults) : nullptr;
  auto injections = std::make_shared<mw::InjectionStats>();
  auto factory = mw::make_worker_factory(
      [](const Unit& u) { return Unit::of(u.as<std::int64_t>() * 2); }, plan, injections);
  mw::RunOptions options;
  options.retry = retry;
  run.stats = mw::run_main_program(runtime, master, std::move(factory), options);
  injections->merge_into(run.stats.faults);
  runtime.shutdown();
  return run;
}

TEST(FaultPool, CrashedWorkersAreRespawnedAndEveryResultArrives) {
  fault::FaultPlanConfig faults;
  faults.seed = 11;
  faults.crash = 0.4;
  faults.corrupt = 0.1;
  fault::RetryPolicy retry;
  retry.max_attempts = 8;  // generous: no slot should ever be abandoned
  retry.backoff_initial = std::chrono::milliseconds(2);
  const ToyRun run = run_toy_pool(16, faults, retry);
  EXPECT_EQ(run.abandoned, 0u);
  EXPECT_EQ(run.total, 2 * (15 * 16 / 2));  // 2 * sum(0..15)
  EXPECT_EQ(run.stats.workers_created, 16u) << "respawns must not inflate workers_created";
  const auto& f = run.stats.faults;
  EXPECT_GT(f.crashes_injected + f.corruptions_injected, 0u);
  EXPECT_EQ(f.crash_events, f.crashes_injected + f.corruptions_injected);
  EXPECT_EQ(f.retries, f.crash_events) << "every crash retried, none abandoned";
  EXPECT_FALSE(f.degraded);
}

TEST(FaultPool, SeededInjectionIsDeterministic) {
  fault::FaultPlanConfig faults;
  faults.seed = 21;
  faults.crash = 0.35;
  fault::RetryPolicy retry;
  retry.max_attempts = 10;
  retry.backoff_initial = std::chrono::milliseconds(2);
  const ToyRun a = run_toy_pool(12, faults, retry);
  const ToyRun b = run_toy_pool(12, faults, retry);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.stats.faults.crashes_injected, b.stats.faults.crashes_injected);
  EXPECT_EQ(a.stats.faults.crash_events, b.stats.faults.crash_events);
  EXPECT_EQ(a.stats.faults.retries, b.stats.faults.retries);
}

TEST(FaultPool, RespawnBudgetZeroDegradesInsteadOfDeadlocking) {
  fault::FaultPlanConfig faults;
  faults.seed = 5;
  faults.crash = 1.0;  // every incarnation crashes
  fault::RetryPolicy retry;
  retry.respawn_budget = 0;
  const ToyRun run = run_toy_pool(6, faults, retry);
  // The run terminates: every slot's work is abandoned, the master receives
  // six WorkAbandoned units, and the pool reports its degradation.
  EXPECT_EQ(run.abandoned, 6u);
  EXPECT_EQ(run.total, 0);
  EXPECT_EQ(run.stats.faults.abandoned, 6u);
  EXPECT_EQ(run.stats.faults.retries, 0u);
  EXPECT_TRUE(run.stats.faults.degraded);
}

TEST(FaultPool, HungWorkersAreKilledAtTheDeadline) {
  fault::FaultPlanConfig faults;
  faults.seed = 3;
  faults.hang = 1.0;  // every incarnation hangs
  fault::RetryPolicy retry;
  retry.task_deadline = std::chrono::milliseconds(150);
  retry.max_attempts = 2;
  retry.backoff_initial = std::chrono::milliseconds(5);
  const ToyRun run = run_toy_pool(2, faults, retry);
  EXPECT_EQ(run.abandoned, 2u);  // both attempts of both slots hang
  const auto& f = run.stats.faults;
  EXPECT_EQ(f.timeouts, 4u);  // 2 slots x 2 attempts
  EXPECT_EQ(f.retries, 2u);
  EXPECT_EQ(f.abandoned, 2u);
  EXPECT_TRUE(f.degraded);
}

TEST(RunMainProgram, OverallDeadlineReturnsErrorInsteadOfHanging) {
  iwim::Runtime runtime;
  auto master = mw::make_master(runtime, "m", [](mw::MasterApi&, iwim::ProcessContext& ctx) {
    // A buggy master that never raises finished and never terminates.
    ctx.await({{"never_raised", std::nullopt}});
  });
  mw::RunOptions options;
  options.overall_deadline = std::chrono::milliseconds(250);
  const auto start = std::chrono::steady_clock::now();
  const auto stats = mw::run_main_program(
      runtime, master,
      mw::make_worker_factory([](const Unit& u) { return u; }), options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(stats.timed_out);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 30);
  runtime.shutdown();
}

TEST(RunMainProgram, MasterDyingMidPoolEndsTheRun) {
  // Regression: a master whose worker throws dies in collect_result (the
  // unit it gets is not the result type it expects) while the coordinator
  // is inside Create_Worker_Pool.  The pool must see the master terminate
  // and end the run, not wait for a rendezvous nobody will raise.
  iwim::Runtime runtime;
  auto master = mw::make_master(runtime, "m", [](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    api.create_worker();
    api.send_work(Unit::of(std::int64_t{1}));
    (void)api.collect_result().as<std::int64_t>();
    api.rendezvous();
    api.finished();
  });
  mw::RunOptions options;
  options.overall_deadline = std::chrono::seconds(5);
  const auto start = std::chrono::steady_clock::now();
  const auto stats = mw::run_main_program(
      runtime, master,
      mw::make_worker_factory([](const Unit&) -> Unit { throw std::runtime_error("bad job"); }),
      options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(stats.timed_out) << "the run waited out its overall deadline";
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  runtime.shutdown();
}

// ---- the concurrent solver under injection -------------------------------------------

TEST(FaultSolver, HeavySeededKillsStayBitExactWithTheSequentialProgram) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 3;
  const auto seq = transport::solve_sequential(program);

  mw::ConcurrentOptions options;
  options.faults.seed = 2004;
  options.faults.crash = 0.35;
  options.faults.corrupt = 0.1;
  options.retry.max_attempts = 8;
  options.retry.backoff_initial = std::chrono::milliseconds(2);
  const auto conc = mw::solve_concurrent(program, options);

  const auto& f = conc.protocol.faults;
  // The acceptance bar: at least a quarter of the requested workers die, and
  // the output is still bit-identical to the fault-free sequential solve.
  EXPECT_GE(4 * (f.crashes_injected + f.corruptions_injected),
            conc.protocol.workers_created)
      << "seed must kill >= 25% of the pool for this test to mean anything";
  EXPECT_EQ(conc.solve.combined.max_diff(seq.combined), 0.0);
  EXPECT_EQ(f.crash_events, f.crashes_injected + f.corruptions_injected);
  EXPECT_EQ(conc.protocol.workers_created, grid::component_count(program.level));
}

TEST(FaultSolver, ZeroRespawnBudgetStillCompletesBitExactViaLocalFallback) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 1;
  const auto seq = transport::solve_sequential(program);

  mw::ConcurrentOptions options;
  options.faults.seed = 17;
  options.faults.crash = 1.0;  // every incarnation crashes
  options.retry.respawn_budget = 0;
  const auto conc = mw::solve_concurrent(program, options);

  // Degraded pool: every grid abandoned, recomputed locally by the master —
  // the run terminates and is still bit-identical.
  EXPECT_TRUE(conc.protocol.faults.degraded);
  EXPECT_EQ(conc.protocol.faults.abandoned, grid::component_count(program.level));
  EXPECT_EQ(conc.solve.combined.max_diff(seq.combined), 0.0);
}

// A plan solve_concurrent cannot honour is refused up front, naming the
// missing piece, instead of running fault-free or never ending.
void expect_rejected(const mw::ConcurrentOptions& options, const std::string& names) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 3;
  try {
    mw::solve_concurrent(program, options);
    ADD_FAILURE() << "a plan that cannot be honoured was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(names), std::string::npos) << e.what();
  }
}

TEST(FaultSolver, WorkerFaultsOnARemotePoolAreRejected) {
  // Real workers are connected, so a solve that ignored the plan would run
  // fault-free rather than wait for a fleet.
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0));
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([port = endpoint.port()] { mw::run_subsolve_worker("127.0.0.1", port); });
  }
  EXPECT_TRUE(endpoint.wait_for_workers(2, std::chrono::seconds(10)));
  mw::ConcurrentOptions options;
  options.faults.seed = 7;
  options.faults.crash = 0.5;
  options.remote = &endpoint;
  expect_rejected(options, "RemoteEndpointConfig::faults");
  endpoint.shutdown();
  for (auto& t : workers) t.join();
}

TEST(FaultSolver, HangsWithoutATaskDeadlineAreRejected) {
  mw::ConcurrentOptions options;
  options.faults.seed = 7;
  options.faults.hang = 0.5;
  expect_rejected(options, "task_deadline");
}

// ---- the simulator mirror ------------------------------------------------------------

TEST(FaultSim, ZeroFaultConfigLeavesTheScheduleUntouched) {
  const cluster::AthlonCostModel cost;
  cluster::SimConfig plain;
  cluster::SimConfig wired = plain;
  wired.retry.max_attempts = 7;  // policy present, injection off
  const auto a = cluster::simulate_run(2, 4, 1e-3, cost, plain, 42);
  const auto b = cluster::simulate_run(2, 4, 1e-3, cost, wired, 42);
  EXPECT_DOUBLE_EQ(a.concurrent_seconds, b.concurrent_seconds);
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_FALSE(b.faults.any());
}

TEST(FaultSim, HostCrashesAreRetriedDeterministically) {
  const cluster::AthlonCostModel cost;
  cluster::SimConfig config;
  config.faults.host_crash = 0.3;
  config.faults.seed = 9;
  const auto plain = cluster::simulate_run(2, 4, 1e-3, cost, cluster::SimConfig{}, 42);
  const auto a = cluster::simulate_run(2, 4, 1e-3, cost, config, 42);
  const auto b = cluster::simulate_run(2, 4, 1e-3, cost, config, 42);
  EXPECT_GT(a.faults.host_crashes_injected, 0u);
  EXPECT_EQ(a.faults.timeouts, a.faults.host_crashes_injected);
  EXPECT_DOUBLE_EQ(a.concurrent_seconds, b.concurrent_seconds);
  EXPECT_EQ(a.faults.host_crashes_injected, b.faults.host_crashes_injected);
  EXPECT_GT(a.concurrent_seconds, plain.concurrent_seconds)
      << "recovering lost work must cost virtual time";
}

TEST(FaultSim, DroppedTransfersAreRetransmitted) {
  const cluster::AthlonCostModel cost;
  cluster::SimConfig config;
  config.faults.net_drop = 0.3;
  config.faults.seed = 13;
  const auto plain = cluster::simulate_run(2, 4, 1e-3, cost, cluster::SimConfig{}, 42);
  const auto dropped = cluster::simulate_run(2, 4, 1e-3, cost, config, 42);
  EXPECT_GT(dropped.faults.net_drops_injected, 0u);
  EXPECT_GT(dropped.network_bytes, plain.network_bytes)
      << "every retransmission pays its bytes again";
}

TEST(FaultSim, ExhaustedBudgetDegradesAndTerminates) {
  const cluster::AthlonCostModel cost;
  cluster::SimConfig config;
  config.faults.host_crash = 1.0;  // every attempt loses its host
  config.retry.respawn_budget = 0;
  const auto run = cluster::simulate_run(2, 2, 1e-3, cost, config, 42);
  EXPECT_TRUE(run.faults.degraded);
  EXPECT_EQ(run.faults.abandoned, run.workers.size());
  EXPECT_GT(run.concurrent_seconds, 0.0);
  EXPECT_TRUE(std::isfinite(run.concurrent_seconds));
}

// ---- report plumbing -----------------------------------------------------------------

TEST(FaultReport, CountersAppearAsTheFaultsSection) {
  obs::RunReport report("test_tool");
  fault::FaultCounters counters;
  counters.crashes_injected = 3;
  counters.retries = 2;
  counters.degraded = true;
  fault::fault_counters_to_json(report.faults(), counters);
  const std::string json = report.json({});
  EXPECT_NE(json.find("\"faults\":{"), std::string::npos);
  EXPECT_NE(json.find("\"crashes_injected\":3"), std::string::npos);
  EXPECT_NE(json.find("\"retries\":2"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
}

TEST(FaultReport, SectionIsOmittedWhenEmpty) {
  obs::RunReport report("test_tool");
  EXPECT_EQ(report.json({}).find("\"faults\""), std::string::npos);
}

}  // namespace
