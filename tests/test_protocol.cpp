// Tests for the paper's master/worker protocol (ProtocolMW +
// Create_Worker_Pool) and the restructured concurrent solver.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <string>
#include <vector>

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

mw::WorkerFactory doubler_factory() {
  return mw::make_worker_factory(
      [](const Unit& u) { return Unit::of(u.as<std::int64_t>() * 2); });
}

TEST(Protocol, SingleWorkerPool) {
  iwim::Runtime runtime;
  std::int64_t result = 0;
  auto master = mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    api.create_worker();
    api.send_work(Unit::of(std::int64_t{21}));
    result = api.collect_result().as<std::int64_t>();
    api.rendezvous();
    api.finished();
  });
  const auto stats = mw::run_main_program(runtime, master, doubler_factory());
  EXPECT_EQ(result, 42);
  EXPECT_EQ(stats.pools_created, 1u);
  EXPECT_EQ(stats.workers_created, 1u);
}

TEST(Protocol, EmptyPoolRendezvousSucceedsImmediately) {
  // A pool with zero workers: the rendezvous must acknowledge at once
  // (t == now == 0 posts `end` directly, protocolMW.m line 46).
  iwim::Runtime runtime;
  auto master = mw::make_master(runtime, "m", [](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    api.rendezvous();
    api.finished();
  });
  const auto stats = mw::run_main_program(runtime, master, doubler_factory());
  EXPECT_EQ(stats.pools_created, 1u);
  EXPECT_EQ(stats.workers_created, 0u);
}

TEST(Protocol, MultiplePoolsReuseTheProtocol) {
  // §4.2: "a more demanding master ... could easily raise the event
  // create_pool [again], in which case we jump again to the create_pool
  // state and another pool is created."
  iwim::Runtime runtime;
  std::int64_t total = 0;
  auto master = mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    for (int pool = 0; pool < 3; ++pool) {
      api.create_pool();
      for (std::int64_t k = 0; k < 4; ++k) {
        api.create_worker();
        api.send_work(Unit::of(k));
      }
      for (int k = 0; k < 4; ++k) total += api.collect_result().as<std::int64_t>();
      api.rendezvous();
    }
    api.finished();
  });
  const auto stats = mw::run_main_program(runtime, master, doubler_factory());
  EXPECT_EQ(stats.pools_created, 3u);
  EXPECT_EQ(stats.workers_created, 12u);
  EXPECT_EQ(total, 3 * 2 * (0 + 1 + 2 + 3));
}

TEST(Protocol, ManyWorkersStress) {
  constexpr std::int64_t kWorkers = 64;
  iwim::Runtime runtime;
  std::int64_t total = 0;
  auto master = mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    for (std::int64_t k = 0; k < kWorkers; ++k) {
      api.create_worker();
      api.send_work(Unit::of(k));
    }
    for (std::int64_t k = 0; k < kWorkers; ++k) total += api.collect_result().as<std::int64_t>();
    api.rendezvous();
    api.finished();
  });
  mw::run_main_program(runtime, master, doubler_factory());
  EXPECT_EQ(total, kWorkers * (kWorkers - 1));  // 2 * sum(0..63)
}

TEST(Protocol, EachWorkerGetsItsOwnWorkItem) {
  // The BK stream dismantling must route work item k to worker k, never to
  // a stale stream of a previous worker.
  constexpr std::int64_t kWorkers = 16;
  iwim::Runtime runtime;
  std::set<std::int64_t> results;
  auto master = mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    for (std::int64_t k = 0; k < kWorkers; ++k) {
      api.create_worker();
      api.send_work(Unit::of(k));
    }
    for (std::int64_t k = 0; k < kWorkers; ++k) {
      results.insert(api.collect_result().as<std::int64_t>());
    }
    api.rendezvous();
    api.finished();
  });
  mw::run_main_program(runtime, master, doubler_factory());
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kWorkers));  // all distinct
}

TEST(Protocol, WorkersRunConcurrentlyWithMaster) {
  // The master can create worker k+1 while worker k has not produced its
  // result yet (results all collected at the end).
  iwim::Runtime runtime;
  std::atomic<int> concurrent_peak{0}, live{0};
  auto factory = mw::make_worker_factory([&](const Unit& u) {
    const int now = ++live;
    int expected = concurrent_peak.load();
    while (now > expected && !concurrent_peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    --live;
    return u;
  });
  auto master = mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    for (std::int64_t k = 0; k < 6; ++k) {
      api.create_worker();
      api.send_work(Unit::of(k));
    }
    for (int k = 0; k < 6; ++k) api.collect_result();
    api.rendezvous();
    api.finished();
  });
  mw::run_main_program(runtime, master, std::move(factory));
  EXPECT_GT(concurrent_peak.load(), 1);
}

TEST(Protocol, TraceShowsWelcomeAndBye) {
  trace::TraceLog log;
  iwim::RuntimeConfig config;
  config.trace = &log;
  iwim::Runtime runtime(config);
  auto master = mw::make_master(runtime, "m", [](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    api.create_worker();
    api.send_work(Unit::of(std::int64_t{1}));
    api.collect_result();
    api.rendezvous();
    api.finished();
  });
  mw::run_main_program(runtime, master, doubler_factory());
  // run_main_program waits for master and coordinator, but the worker thread
  // may still be unwinding; join everything before counting trace lines.
  runtime.shutdown();
  std::size_t welcomes = 0, byes = 0;
  for (const auto& m : log.snapshot()) {
    if (m.text == "Welcome") ++welcomes;
    if (m.text == "Bye") ++byes;
  }
  EXPECT_EQ(welcomes, 3u);  // master, Main, worker
  EXPECT_EQ(byes, 3u);
  // Formatting matches the paper's two-line label -> message layout.
  const std::string rendered = log.snapshot().front().format();
  EXPECT_NE(rendered.find(" -> "), std::string::npos);
}

TEST(Protocol, FaultFreePoolTracesThePaperMesLines) {
  // With no fault, the supervised pool traces protocolMW.m's MES lines in
  // order and nothing else: begin, one per create_worker, and the
  // acknowledged rendezvous.
  constexpr std::int64_t kWorkers = 4;
  trace::TraceLog log;
  iwim::RuntimeConfig config;
  config.trace = &log;
  iwim::Runtime runtime(config);
  std::int64_t total = 0;
  auto master = mw::make_master(runtime, "m", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    for (std::int64_t k = 0; k < kWorkers; ++k) {
      api.create_worker();
      api.send_work(Unit::of(k));
    }
    for (std::int64_t k = 0; k < kWorkers; ++k) total += api.collect_result().as<std::int64_t>();
    api.rendezvous();
    api.finished();
  });
  const auto stats = mw::run_main_program(runtime, master, doubler_factory());
  runtime.shutdown();
  EXPECT_EQ(total, 2 * (0 + 1 + 2 + 3));
  EXPECT_EQ(stats.workers_created, static_cast<std::size_t>(kWorkers));
  EXPECT_FALSE(stats.faults.any());
  EXPECT_FALSE(stats.timed_out);

  std::vector<std::string> expected = {"begin"};
  expected.insert(expected.end(), kWorkers, "create_worker: begin");
  expected.push_back("rendezvous acknowledged");
  std::vector<std::string> mes;
  for (const auto& m : log.snapshot()) {
    if (m.manifold_name == "Main" && m.source_file == "protocol.cpp") mes.push_back(m.text);
  }
  EXPECT_EQ(mes, expected);
}

TEST(Protocol, TaskPlacementFollowsMlinkSpec) {
  // With the paper's distributed spec, each worker occupies its own task
  // instance while the master (+ coordinator) stays in the startup task.
  iwim::Runtime runtime;  // default: paper_distributed + 32 generated hosts
  auto master = mw::make_master(runtime, "m", [](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    for (std::int64_t k = 0; k < 3; ++k) {
      api.create_worker();
      api.send_work(Unit::of(k));
    }
    for (int k = 0; k < 3; ++k) api.collect_result();
    api.rendezvous();
    api.finished();
  });
  // Workers park until released so all three coexist (forcing 3 tasks).
  std::atomic<int> arrived{0};
  auto factory = mw::make_worker_factory([&](const Unit& u) {
    ++arrived;
    while (arrived.load() < 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return u;
  });
  mw::run_main_program(runtime, master, std::move(factory));
  EXPECT_EQ(runtime.tasks().stats().tasks_created, 4u);  // startup + 3 workers
  EXPECT_EQ(runtime.tasks().stats().peak_busy, 4u);
}

TEST(Protocol, ParallelBundlingKeepsOneMachine) {
  // §6: changing the MLINK load to bundle everything into one task turns the
  // distributed application into a parallel one.
  iwim::RuntimeConfig config;
  config.tasks = iwim::TaskCompositionSpec::paper_parallel(8);
  iwim::Runtime runtime(config);
  auto master = mw::make_master(runtime, "m", [](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    for (std::int64_t k = 0; k < 8; ++k) {
      api.create_worker();
      api.send_work(Unit::of(k));
    }
    for (int k = 0; k < 8; ++k) api.collect_result();
    api.rendezvous();
    api.finished();
  });
  mw::run_main_program(runtime, master, doubler_factory());
  EXPECT_EQ(runtime.tasks().stats().tasks_created, 1u);
}

// ---- the concurrent solver ----------------------------------------------------------

struct SolverParam {
  int root;
  int level;
  double tol;
  bool pool_per_family;
  mw::DataPath path;
};

class ConcurrentMatchesSequential : public ::testing::TestWithParam<SolverParam> {};

TEST_P(ConcurrentMatchesSequential, BitExactAgreement) {
  const auto p = GetParam();
  transport::ProgramConfig program;
  program.root = p.root;
  program.level = p.level;
  program.le_tol = p.tol;

  const auto seq = transport::solve_sequential(program);

  mw::ConcurrentOptions options;
  options.pool_per_family = p.pool_per_family;
  options.data_path = p.path;
  const auto conc = mw::solve_concurrent(program, options);

  EXPECT_EQ(conc.solve.combined.max_diff(seq.combined), 0.0)
      << "§6: results must be exactly the same as in the sequential version";
  EXPECT_EQ(conc.protocol.workers_created, grid::component_count(p.level));
  EXPECT_EQ(conc.protocol.pools_created,
            p.pool_per_family && p.level >= 1 ? 2u : 1u);
  ASSERT_EQ(conc.solve.records.size(), seq.records.size());
  for (std::size_t k = 0; k < seq.records.size(); ++k) {
    EXPECT_EQ(conc.solve.records[k].grid, seq.records[k].grid);
    EXPECT_EQ(conc.solve.records[k].stats.accepted, seq.records[k].stats.accepted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ConcurrentMatchesSequential,
    ::testing::Values(
        SolverParam{2, 0, 1e-3, false, mw::DataPath::ThroughMaster},
        SolverParam{2, 1, 1e-3, false, mw::DataPath::ThroughMaster},
        SolverParam{2, 3, 1e-3, false, mw::DataPath::ThroughMaster},
        SolverParam{2, 3, 1e-4, false, mw::DataPath::ThroughMaster},
        SolverParam{2, 3, 1e-3, true, mw::DataPath::ThroughMaster},
        SolverParam{2, 3, 1e-3, false, mw::DataPath::SharedGlobal},
        SolverParam{2, 4, 1e-3, true, mw::DataPath::SharedGlobal},
        SolverParam{1, 3, 1e-3, false, mw::DataPath::ThroughMaster},
        SolverParam{3, 2, 1e-3, false, mw::DataPath::ThroughMaster}));

TEST(ConcurrentSolver, IsDeterministicAcrossRuns) {
  transport::ProgramConfig program;
  program.level = 3;
  const auto a = mw::solve_concurrent(program);
  const auto b = mw::solve_concurrent(program);
  EXPECT_EQ(a.solve.combined.max_diff(b.solve.combined), 0.0);
}

TEST(ConcurrentSolver, TaskStatsAreReported) {
  transport::ProgramConfig program;
  program.level = 2;
  const auto result = mw::solve_concurrent(program);
  EXPECT_GE(result.tasks.tasks_created, 2u);
  EXPECT_FALSE(result.tasks.machine_events.empty());
}

}  // namespace
