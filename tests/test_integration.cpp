// Cross-module integration tests: failure injection in the protocol, the
// measured-cost-model pipeline (real kernel timings feeding the cluster
// simulator), tracing end-to-end, and protocol genericity.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "core/concurrent_solver.hpp"
#include "core/master.hpp"
#include "core/protocol.hpp"
#include "core/worker.hpp"
#include "manifold/runtime.hpp"
#include "trace/trace_log.hpp"
#include "transport/seq_solver.hpp"

namespace {

using namespace mg;
using iwim::Unit;

// ---- failure injection -----------------------------------------------------------

TEST(FailureInjection, CrashingWorkerStillDiesAndRendezvousCompletes) {
  // A worker whose work throws is re-dispatched until its attempts run out;
  // the master then gets a WorkAbandoned marker in place of the result.
  iwim::Runtime runtime;
  int abandoned = 0;
  auto master = mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    for (std::int64_t k = 0; k < 4; ++k) {
      api.create_worker();
      api.send_work(Unit::of(k));
    }
    for (int k = 0; k < 4; ++k) {
      if (api.collect_result().is<mw::WorkAbandoned>()) ++abandoned;
    }
    api.rendezvous();  // must not hang even though workers 1 and 3 crashed
    api.finished();
  });
  auto factory = mw::make_worker_factory([](const Unit& u) {
    if (u.as<std::int64_t>() % 2 == 1) throw std::runtime_error("injected worker crash");
    return u;
  });
  const auto stats = mw::run_main_program(runtime, master, std::move(factory));
  EXPECT_EQ(stats.workers_created, 4u);
  EXPECT_EQ(abandoned, 2);
}

TEST(FailureInjection, AllWorkersCrashingStillTerminates) {
  iwim::Runtime runtime;
  auto master = mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    for (std::int64_t k = 0; k < 3; ++k) {
      api.create_worker();
      api.send_work(Unit::of(k));
    }
    for (int k = 0; k < 3; ++k) api.collect_result();
    api.rendezvous();
    api.finished();
  });
  auto factory = mw::make_worker_factory(
      [](const Unit&) -> Unit { throw std::runtime_error("boom"); });
  EXPECT_NO_FATAL_FAILURE(mw::run_main_program(runtime, master, std::move(factory)));
}

TEST(FailureInjection, CrashingMasterDoesNotHangTheProtocol) {
  // ProtocolMW's begin state also waits on terminated(master): a master that
  // dies without raising finished still releases the coordinator.
  iwim::Runtime runtime;
  auto master = mw::make_master(runtime, "m", [](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    api.rendezvous();
    throw std::runtime_error("master crash before finished");
  });
  const auto stats =
      mw::run_main_program(runtime, master, mw::make_worker_factory([](const Unit& u) {
        return u;
      }));
  EXPECT_EQ(stats.pools_created, 1u);
}

// ---- measured cost model pipeline ---------------------------------------------------

TEST(MeasuredPipeline, RealKernelTimingsDriveTheSimulator) {
  // Measure the real subsolve on small grids, fit the cost model, and use it
  // to simulate a (small-level) table — the full calibration pipeline.
  std::vector<cluster::MeasuredCostModel::Sample> samples;
  transport::SubsolveConfig kernel;
  for (int lm = 2; lm <= 4; ++lm) {
    for (int l = 0; l <= lm; ++l) {
      for (double tol : {1e-3, 1e-4}) {
        kernel.le_tol = tol;
        const grid::Grid2D g(2, l, lm - l);
        const auto r = transport::subsolve(g, kernel);
        samples.push_back({2, l, lm - l, tol, std::max(r.elapsed_seconds, 1e-6)});
      }
    }
  }
  samples.push_back(samples.front());  // break the tie: 1e-3 becomes base
  const cluster::MeasuredCostModel model(samples, 2000.0);
  EXPECT_GT(model.cost_per_cell(), 0.0);
  EXPECT_GT(model.tol_factor(), 1.0);

  cluster::SimConfig config;
  config.runs = 2;
  const auto rows = cluster::simulate_table(2, 6, 1e-3, model, config);
  ASSERT_EQ(rows.size(), 7u);
  for (const auto& row : rows) {
    EXPECT_GT(row.st, 0.0);
    EXPECT_GT(row.ct, 0.0);
    EXPECT_LT(row.su, 1.0);  // tiny problems cannot win on a cluster
  }
}

// ---- tracing end-to-end ---------------------------------------------------------------

TEST(TraceIntegration, ConcurrentSolveEmitsPaperStyleChronology) {
  trace::TraceLog log;
  transport::ProgramConfig program;
  program.level = 2;
  mw::ConcurrentOptions options;
  options.trace = &log;
  options.hosts = iwim::HostMap::paper_hosts();
  mw::solve_concurrent(program, options);

  const auto messages = log.snapshot();
  ASSERT_FALSE(messages.empty());
  // First message is the master's Welcome on the startup machine.
  EXPECT_EQ(messages.front().text, "Welcome");
  EXPECT_EQ(messages.front().host, "bumpa.sen.cwi.nl");
  // Every worker Welcome carries a worker host from the CONFIG list and the
  // task name from the MLINK spec.
  std::size_t worker_welcomes = 0;
  for (const auto& m : messages) {
    EXPECT_EQ(m.task_name, "mainprog");
    if (m.manifold_name == "Worker" && m.text == "Welcome") {
      ++worker_welcomes;
      EXPECT_NE(m.host, "");
    }
  }
  EXPECT_EQ(worker_welcomes, grid::component_count(program.level));
}

TEST(TraceIntegration, MachineEventsYieldEbbFlow) {
  transport::ProgramConfig program;
  program.level = 3;
  const auto result = mw::solve_concurrent(program);
  const auto series = trace::build_ebb_flow(result.tasks.machine_events, 1.0);
  EXPECT_GE(series.peak(), 1);
  EXPECT_GT(series.weighted_average(), 0.0);
}

// ---- genericity (the task-farm reuse) ---------------------------------------------------

TEST(Genericity, SameProtocolRunsQuadratureFarm) {
  iwim::Runtime runtime;
  double integral = 0.0;
  const int panels = 8;
  auto master = mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    for (int k = 0; k < panels; ++k) {
      api.create_worker();
      api.send_work(Unit::of(std::pair<double, double>{k / 8.0, (k + 1) / 8.0}));
    }
    for (int k = 0; k < panels; ++k) integral += api.collect_result().as<double>();
    api.rendezvous();
    api.finished();
  });
  // Worker integrates x^2 over its panel exactly.
  auto factory = mw::make_worker_factory([](const Unit& u) {
    const auto [a, b] = u.as<std::pair<double, double>>();
    return Unit::of((b * b * b - a * a * a) / 3.0);
  });
  mw::run_main_program(runtime, master, std::move(factory));
  EXPECT_NEAR(integral, 1.0 / 3.0, 1e-12);
}

TEST(Genericity, TwoIndependentApplicationsDoNotInterfere) {
  // Two runtimes (= two MANIFOLD applications) in one process: event
  // broadcasts must stay within their own application.
  iwim::Runtime app1, app2;
  std::atomic<int> woken1{0};
  auto waiter = app1.create_process("W", "w", [&](iwim::ProcessContext& ctx) {
    if (ctx.await_for({{"shared_name", std::nullopt}}, std::chrono::milliseconds(100))) {
      ++woken1;
    }
  });
  waiter->activate();
  auto raiser = app2.create_process("R", "r",
                                    [](iwim::ProcessContext& ctx) { ctx.raise("shared_name"); });
  raiser->activate();
  waiter->wait_terminated();
  EXPECT_EQ(woken1.load(), 0);  // app2's event never reached app1
}

// ---- sequential/concurrent agreement under solver variants -------------------------------

TEST(SolverVariants, KrylovBackendAlsoMatchesItsOwnSequentialRun) {
  transport::ProgramConfig program;
  program.level = 2;
  program.kernel.system.solver = transport::StageSolverKind::BiCgStabIlu0;
  const auto seq = transport::solve_sequential(program);
  const auto conc = mw::solve_concurrent(program);
  EXPECT_EQ(conc.solve.combined.max_diff(seq.combined), 0.0);
}

TEST(SolverVariants, UpwindSchemeAlsoMatches) {
  transport::ProgramConfig program;
  program.level = 2;
  program.kernel.system.scheme = transport::AdvectionScheme::Upwind1;
  const auto seq = transport::solve_sequential(program);
  const auto conc = mw::solve_concurrent(program);
  EXPECT_EQ(conc.solve.combined.max_diff(seq.combined), 0.0);
}

}  // namespace
