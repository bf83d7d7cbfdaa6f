// Tests for the subsolve hot path: the stage-matrix cache (hit/miss/refresh
// semantics, bit-identity with a rebuild-every-step reference built here
// from mg_linalg calls), Krylov warm starts, the in-place shifted-assembly
// primitive, and the LPT dispatch order.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/concurrent_solver.hpp"
#include "core/remote_worker.hpp"
#include "net/remote.hpp"
#include "grid/combination.hpp"
#include "grid/grid2d.hpp"
#include "linalg/banded.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/csr.hpp"
#include "linalg/precond.hpp"
#include "obs/metrics.hpp"
#include "rosenbrock/ros2.hpp"
#include "transport/seq_solver.hpp"
#include "transport/subsolve.hpp"
#include "transport/system.hpp"

namespace {

using namespace mg;
using transport::StageSolverKind;
using transport::SubsolveConfig;
using transport::SystemOptions;
using transport::TransportSystem;

SubsolveConfig config_for(StageSolverKind kind) {
  SubsolveConfig config;
  config.le_tol = 1e-4;
  config.system.solver = kind;
  return config;
}

// ---- the rebuild-every-step reference --------------------------------------------

/// The paper's "A matrix must be built up ... again and again": every
/// preparation assembles a fresh stage matrix and a fresh solver from
/// mg_linalg calls alone, and rhs comes from a TransportSystem.  It does no
/// arithmetic of its own, so under any codegen it computes what the stage
/// cache must reproduce bit for bit.  `cold` starts every Krylov solve from
/// zero instead of the caller's x.
class RebuildEveryStep final : public ros::OdeSystem {
 public:
  RebuildEveryStep(TransportSystem& system, SystemOptions options, bool cold)
      : system_(system), options_(options), cold_(cold) {}

  std::size_t dimension() const override { return system_.dimension(); }
  void rhs(double t, const ros::Vec& u, ros::Vec& f) override { system_.rhs(t, u, f); }

  std::unique_ptr<ros::StageSolver> prepare_stage(double, const ros::Vec&,
                                                  double gamma_h) override {
    linalg::CsrMatrix stage = linalg::shifted_identity(system_.jacobian(), 1.0, -gamma_h);
    if (options_.solver == StageSolverKind::BandedLU) {
      const grid::Grid2D& g = system_.grid();
      auto lu = linalg::GridBandedLU::from_csr(stage, g.interior_x(), g.interior_y());
      lu.factorize();
      return std::make_unique<Banded>(std::move(lu));
    }
    return std::make_unique<Krylov>(std::move(stage), options_.krylov, cold_);
  }

 private:
  struct Banded final : ros::StageSolver {
    explicit Banded(linalg::GridBandedLU factors) : lu(std::move(factors)) {}
    void solve(const ros::Vec& rhs, ros::Vec& x) override { lu.solve(rhs, x); }
    linalg::GridBandedLU lu;
  };

  struct Krylov final : ros::StageSolver {
    Krylov(linalg::CsrMatrix stage, linalg::SolveOptions options, bool cold_start)
        : a(std::move(stage)), ilu(a), opts(options), cold(cold_start) {}
    void solve(const ros::Vec& rhs, ros::Vec& x) override {
      if (cold || x.size() != a.rows()) x.assign(a.rows(), 0.0);
      if (!linalg::bicgstab(a, rhs, x, ilu, opts).converged) {
        throw std::runtime_error("reference BiCGSTAB failed to converge");
      }
    }
    linalg::CsrMatrix a;
    linalg::Ilu0Preconditioner ilu;
    linalg::SolveOptions opts;
    bool cold;
  };

  TransportSystem& system_;
  SystemOptions options_;
  bool cold_;
};

/// transport::subsolve with the reference in place of the stage cache: the
/// same initial condition, controller and expansion of the result.
transport::SubsolveResult reference_subsolve(const grid::Grid2D& g, const SubsolveConfig& config,
                                             bool cold) {
  TransportSystem system(g, config.problem, config.system);
  RebuildEveryStep reference(system, config.system, cold);
  grid::Field init(g);
  init.sample([&](double x, double y) { return config.problem.exact(x, y, config.t0); });
  ros::Vec u = system.restrict_interior(init);
  ros::Ros2Options opts;
  opts.tol = config.le_tol;
  opts.t0 = config.t0;
  opts.t1 = config.t1;
  const ros::Ros2Stats stats = ros::integrate(reference, u, opts);
  return {system.expand(u, config.t1), stats, 0.0};
}

// ---- bit-identity with the rebuild-every-step reference --------------------------

class StageCacheKinds : public ::testing::TestWithParam<StageSolverKind> {};

// The stage cache's acceptance bar: caching the stage matrix and its factors
// must not change a single bit of the trajectory, for any solver kind, over
// an adaptive run whose step size (and hence gamma*h) genuinely varies.
TEST_P(StageCacheKinds, CachedRunIsBitIdenticalToRebuildEveryStep) {
  const grid::Grid2D g(2, 3, 2);
  const auto cached = transport::subsolve(g, config_for(GetParam()));
  const auto rebuilt = reference_subsolve(g, config_for(GetParam()), /*cold=*/false);
  EXPECT_EQ(cached.solution.max_diff(rebuilt.solution), 0.0);
  EXPECT_EQ(cached.stats.accepted, rebuilt.stats.accepted);
  EXPECT_EQ(cached.stats.rejected, rebuilt.stats.rejected);
  EXPECT_EQ(cached.stats.stage_preparations, rebuilt.stats.stage_preparations);
  EXPECT_EQ(cached.stats.stage_solves, rebuilt.stats.stage_solves);
  EXPECT_EQ(cached.stats.final_h, rebuilt.stats.final_h);
}

// Warm starting only moves Krylov iteration counts; the accept/reject
// trajectory is driven by the converged stage solutions, which stay inside
// the same tolerance, and the direct solver ignores the seed entirely.  The
// warm run is subsolve itself; the cold one is the reference started from
// zero.
TEST_P(StageCacheKinds, WarmAndColdStartsBothConvergeToTheBandedReference) {
  const grid::Grid2D g(2, 2, 2);
  const auto reference = transport::subsolve(g, config_for(StageSolverKind::BandedLU));
  SubsolveConfig config = config_for(GetParam());
  config.system.krylov.rel_tol = 1e-12;
  EXPECT_LT(transport::subsolve(g, config).solution.max_diff(reference.solution), 1e-6);
  EXPECT_LT(reference_subsolve(g, config, /*cold=*/true).solution.max_diff(reference.solution),
            1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StageCacheKinds,
                         ::testing::Values(StageSolverKind::BandedLU,
                                           StageSolverKind::BiCgStabIlu0),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case StageSolverKind::BandedLU: return "BandedLU";
                             case StageSolverKind::BiCgStabIlu0: return "BiCgStabIlu0";
                           }
                           return "Unknown";
                         });

// ---- hit / miss / refresh ledger -------------------------------------------------

TEST(StageCache, CountsHitsMissesAndRefreshes) {
  const grid::Grid2D g(2, 2, 2);
  TransportSystem system(g, transport::TransportProblem{});
  const ros::Vec u(system.dimension(), 0.0);

  auto s1 = system.prepare_stage(0.0, u, 1e-3);  // first build: miss
  auto s2 = system.prepare_stage(0.0, u, 1e-3);  // same gamma*h: hit
  auto s3 = system.prepare_stage(0.0, u, 1e-3);  // still unchanged: hit
  auto s4 = system.prepare_stage(0.0, u, 5e-4);  // step size changed: refresh
  auto s5 = system.prepare_stage(0.0, u, 5e-4);  // unchanged again: hit

  const auto& stats = system.stage_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.refreshes, 1u);
}

// A refreshed (or reused) cached solver must produce the same bits as a
// freshly rebuilt one on the same right-hand side, for every solver kind
// and across a gamma*h change.  Both start from an empty x, so the seed
// plays no part.
TEST_P(StageCacheKinds, CachedSolverMatchesRebuiltSolverBitwise) {
  const grid::Grid2D g(2, 2, 2);
  SystemOptions options;
  options.solver = GetParam();
  TransportSystem cached(g, transport::TransportProblem{}, options);
  TransportSystem source(g, transport::TransportProblem{}, options);
  RebuildEveryStep rebuilt(source, options, /*cold=*/true);

  const ros::Vec u(cached.dimension(), 0.0);
  ros::Vec rhs(cached.dimension());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    rhs[i] = 1.0 / static_cast<double>(i + 1);
  }

  // miss, hit, then refresh on the cached side; fresh build every time on
  // the reference side.
  for (double gamma_h : {2e-3, 2e-3, 7e-4}) {
    auto a = cached.prepare_stage(0.0, u, gamma_h);
    auto b = rebuilt.prepare_stage(0.0, u, gamma_h);
    ros::Vec xa, xb;
    a->solve(rhs, xa);
    b->solve(rhs, xb);
    ASSERT_EQ(xa.size(), xb.size());
    for (std::size_t i = 0; i < xa.size(); ++i) {
      ASSERT_EQ(xa[i], xb[i]) << "component " << i << " at gamma*h = " << gamma_h;
    }
  }
  EXPECT_EQ(cached.stage_cache_stats().hits, 1u);
  EXPECT_EQ(cached.stage_cache_stats().refreshes, 1u);
}

// A free-running adaptive solve still moves h whenever the controller
// proposes a shrink, a rejection or a growth above the hold band, and each
// such move refreshes the factors in place: one first build, then refreshes
// between the hits — and every preparation lands in exactly one ledger
// bucket.
TEST(StageCache, AdaptiveRunRefreshesInPlace) {
  const grid::Grid2D g(2, 3, 3);
  const auto config = config_for(StageSolverKind::BandedLU);
  obs::registry().reset();
  const auto result = transport::subsolve(g, config);
  const auto snap = obs::registry().snapshot();
  const std::uint64_t hits = snap.counter_or("linalg.stage_cache.hits");
  const std::uint64_t misses = snap.counter_or("linalg.stage_cache.misses");
  const std::uint64_t refreshes = snap.counter_or("linalg.stage_cache.refreshes");
  EXPECT_EQ(hits + misses + refreshes, result.stats.stage_preparations);
  EXPECT_EQ(misses, 1u);     // one first build per subsolve
  EXPECT_GT(refreshes, 0u);  // the controller moved h, invalidating the factors
}

// The ROS2 controller keeps h while the proposed growth is small, so a real
// solve reuses the factors on most steps: at least 80% of the preparations
// are hits on every grid of G(2;3), G(2;4) and G(2;5), at both of the
// paper's tolerances.  (A controller that rescales h every step scores 0.)
TEST(StageCache, HeldStepSizeHitsOnEveryGridOfARealSolve) {
  for (const double tol : {1e-3, 1e-4}) {
    for (int level = 3; level <= 5; ++level) {
      for (const grid::CombinationTerm& term : grid::combination_terms(2, level)) {
        SCOPED_TRACE(term.grid.name() + " tol " + std::to_string(tol));
        SubsolveConfig config;
        config.le_tol = tol;
        obs::registry().reset();
        transport::subsolve(term.grid, config);
        const double ratio = obs::registry().snapshot().counter_ratio(
            "linalg.stage_cache.hits",
            {"linalg.stage_cache.hits", "linalg.stage_cache.misses",
             "linalg.stage_cache.refreshes"});
        EXPECT_GE(ratio, 0.8);
      }
    }
  }
}

// When the step size saturates (here: a fixed-step run; an h_max-limited
// adaptive run behaves the same) gamma*h repeats and the factors are reused
// outright — the cache-hit path the prepare_stage bench measures.
TEST(StageCache, SaturatedStepSizeReusesFactorsOutright) {
  const grid::Grid2D g(2, 2, 2);
  TransportSystem system(g, transport::TransportProblem{});

  ros::Ros2Options opts;
  opts.t0 = 0.0;
  opts.t1 = 0.1;
  opts.h0 = 0.005;
  opts.fixed_step = true;
  ros::Vec u = system.restrict_interior(grid::Field(g));
  obs::registry().reset();
  const auto stats = ros::integrate(system, u, opts);

  const auto& cache = system.stage_cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  // The last step may be truncated to land exactly on t1, costing at most
  // one refresh; every other step reuses the factors outright.
  EXPECT_LE(cache.refreshes, 1u);
  EXPECT_GE(cache.hits, stats.stage_preparations - 2);
  EXPECT_EQ(cache.hits + cache.misses + cache.refreshes, stats.stage_preparations);
  const double rate = obs::registry().snapshot().counter_ratio(
      "linalg.stage_cache.hits",
      {"linalg.stage_cache.hits", "linalg.stage_cache.misses",
       "linalg.stage_cache.refreshes"});
  EXPECT_GT(rate, 0.5);
}

// ---- warm starts -----------------------------------------------------------------

// subsolve warm-starts every Krylov stage solve; the reference run cold is
// the same integration with every solve started from zero.
TEST(WarmStart, ReducesBicgstabIterationsAtUnchangedTolerance) {
  const grid::Grid2D g(2, 3, 3);
  const SubsolveConfig config = config_for(StageSolverKind::BiCgStabIlu0);
  obs::registry().reset();
  reference_subsolve(g, config, /*cold=*/true);
  const std::uint64_t cold =
      obs::registry().snapshot().counter_or("linalg.bicgstab_iterations");
  obs::registry().reset();
  transport::subsolve(g, config);
  const std::uint64_t warm =
      obs::registry().snapshot().counter_or("linalg.bicgstab_iterations");
  EXPECT_GT(cold, 0u);
  EXPECT_LE(warm, cold);
}

// ---- the in-place assembly primitive ---------------------------------------------

// The cache's value-refresh path writes scale_a*v into every slot and adds
// the shift at the diagonal offset; that must reproduce shifted_identity
// bit for bit (IEEE addition is commutative) on the Jacobian's own pattern.
TEST(StageCache, InPlaceShiftedValuesMatchShiftedIdentityBitwise) {
  const grid::Grid2D g(2, 2, 3);
  TransportSystem system(g, transport::TransportProblem{}, SystemOptions{});
  const linalg::CsrMatrix& jac = system.jacobian();
  const double gamma_h = 3.7e-3;

  const linalg::CsrMatrix reference = linalg::shifted_identity(jac, 1.0, -gamma_h);
  linalg::CsrMatrix in_place = jac;
  const auto diag = jac.diagonal_offsets();
  auto& values = in_place.values();
  for (std::size_t k = 0; k < values.size(); ++k) values[k] = -gamma_h * jac.values()[k];
  for (std::size_t i = 0; i < jac.rows(); ++i) {
    ASSERT_NE(diag[i], linalg::CsrMatrix::kNoDiagonal);
    values[diag[i]] += 1.0;
  }

  ASSERT_EQ(reference.values().size(), in_place.values().size());
  for (std::size_t k = 0; k < values.size(); ++k) {
    ASSERT_EQ(reference.values()[k], in_place.values()[k]) << "slot " << k;
  }
}

TEST(CsrDiagonal, SinglePassDiagonalMatchesOffsets) {
  const grid::Grid2D g(2, 2, 2);
  TransportSystem system(g, transport::TransportProblem{}, SystemOptions{});
  const linalg::CsrMatrix& jac = system.jacobian();
  const auto diag = jac.diagonal();
  const auto offsets = jac.diagonal_offsets();
  ASSERT_EQ(diag.size(), jac.rows());
  ASSERT_EQ(offsets.size(), jac.rows());
  for (std::size_t i = 0; i < jac.rows(); ++i) {
    ASSERT_NE(offsets[i], linalg::CsrMatrix::kNoDiagonal);
    EXPECT_EQ(jac.values()[offsets[i]], diag[i]);
    EXPECT_EQ(jac.col_idx()[offsets[i]], i);
  }
}

// ---- cache + warm start through the fault-tolerant concurrent path ---------------

// The recompute paths (worker respawn, master-local fallback) construct
// fresh TransportSystems, so each retry re-seeds its own cache; the result
// must stay bit-identical to the fault-free sequential program with the
// warm-started Krylov solver on the cached path.
TEST(StageCache, FaultRecomputePathsStayBitExactWithCacheAndWarmStart) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 2;
  program.kernel.system.solver = StageSolverKind::BiCgStabIlu0;
  const auto seq = transport::solve_sequential(program);

  mw::ConcurrentOptions options;
  options.faults.seed = 404;
  options.faults.crash = 0.4;
  options.retry.max_attempts = 8;
  options.retry.backoff_initial = std::chrono::milliseconds(2);
  const auto conc = mw::solve_concurrent(program, options);

  EXPECT_GT(conc.protocol.faults.crashes_injected, 0u);
  EXPECT_EQ(conc.solve.combined.max_diff(seq.combined), 0.0);
}

// Regression: the degraded-pool fallback receives the abandoned worker's
// *creation slot*, which under LPT dispatch is a position in the reordered
// dispatch sequence, not a term offset.  With every slot abandoned
// (respawn budget 0) at a level where grid weights genuinely differ, a
// slot-to-term mix-up recomputes the wrong grids and the run cannot
// complete bit-exactly.
TEST(StageCache, AbandonedSlotsMapBackToTheRightTermsUnderLpt) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 2;
  const auto seq = transport::solve_sequential(program);

  mw::ConcurrentOptions options;
  options.faults.seed = 9;
  options.faults.crash = 1.0;  // every incarnation crashes
  options.retry.respawn_budget = 0;
  const auto conc = mw::solve_concurrent(program, options);

  EXPECT_TRUE(conc.protocol.faults.degraded);
  EXPECT_EQ(conc.protocol.faults.abandoned, grid::component_count(program.level));
  EXPECT_EQ(conc.solve.combined.max_diff(seq.combined), 0.0);
}

// ---- LPT dispatch order ----------------------------------------------------------

TEST(LptOrder, SortsByDescendingPayloadWithStableTieBreak) {
  const auto terms = grid::combination_terms(2, 3);
  const auto order = mw::lpt_order(terms, 0, terms.size());
  ASSERT_EQ(order.size(), terms.size());

  std::vector<bool> seen(terms.size(), false);
  for (std::size_t k : order) {
    ASSERT_LT(k, terms.size());
    EXPECT_FALSE(seen[k]);  // a permutation: every term exactly once
    seen[k] = true;
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t prev = transport::subsolve_payload_bytes(terms[order[i - 1]].grid);
    const std::size_t cur = transport::subsolve_payload_bytes(terms[order[i]].grid);
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(order[i - 1], order[i]);  // stable tie-break
    }
  }
}

TEST(LptOrder, RespectsTheRequestedWindow) {
  const auto terms = grid::combination_terms(2, 3);
  const std::size_t first = 1, count = terms.size() - 2;
  const auto order = mw::lpt_order(terms, first, count);
  ASSERT_EQ(order.size(), count);
  for (std::size_t k : order) {
    EXPECT_GE(k, first);
    EXPECT_LT(k, first + count);
  }
}

// ---- LPT dispatch over the TCP substrate -----------------------------------------

// In-process subsolve workers: run_subsolve_worker on plain threads over
// loopback, so these stay tier-1 (the forked-process variants live in
// test_net_soak.cpp).  The threads join once the endpoint shuts down and the
// workers give up reconnecting.
struct SubsolveWorkers {
  std::vector<std::thread> threads;

  SubsolveWorkers(std::uint16_t port, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([port] { mw::run_subsolve_worker("127.0.0.1", port); });
    }
  }
  ~SubsolveWorkers() {
    for (auto& t : threads) t.join();
  }
};

// TCP completions come back in whatever order the workers finish; a net_slow
// plan delays a seeded subset of Work frames to force an order that differs
// from the LPT dispatch order.  Results are keyed by term index, so the
// combined output must match both the sequential program and the threaded
// LPT backend bit for bit.
TEST(LptOrder, TcpCompletionReorderKeepsLptResultBitExact) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 2;
  const auto seq = transport::solve_sequential(program);
  const auto reference = mw::solve_concurrent(program);

  fault::FaultPlanConfig fault_config;
  fault_config.seed = 21;
  fault_config.net_slow = 0.5;  // delay only — no failures, pure reordering
  fault_config.net_delay = std::chrono::milliseconds(25);
  const fault::FaultPlan plan(fault_config);

  net::RemoteEndpointConfig config;
  config.faults = &plan;
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
  SubsolveWorkers workers(endpoint.port(), 3);
  ASSERT_TRUE(endpoint.wait_for_workers(3, std::chrono::seconds(10)));

  mw::ConcurrentOptions options;
  options.remote = &endpoint;
  const auto remote = mw::solve_concurrent(program, options);

  EXPECT_GT(endpoint.counters().faults_delayed, 0u);
  EXPECT_EQ(endpoint.counters().round_trips_failed, 0u);
  EXPECT_EQ(remote.solve.combined.max_diff(seq.combined), 0.0);
  EXPECT_EQ(remote.solve.combined.max_diff(reference.solve.combined), 0.0);
  endpoint.shutdown();
}

// The degraded-pool regression of AbandonedSlotsMapBackToTheRightTermsUnderLpt,
// but with the crashes coming from the transport: every Work frame is
// dropped, every slot abandons after its first failed round trip, and the
// WorkAbandoned pool_slot must still map through lpt_order to the right term
// when the master recomputes locally.
TEST(LptOrder, TcpDegradedPoolMapsAbandonedSlotsToTheRightTerms) {
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 2;
  const auto seq = transport::solve_sequential(program);

  fault::FaultPlanConfig fault_config;
  fault_config.seed = 9;
  fault_config.net_drop = 1.0;
  const fault::FaultPlan plan(fault_config);

  net::RemoteEndpointConfig config;
  config.round_trip_deadline = std::chrono::milliseconds(150);
  config.faults = &plan;
  net::RemoteEndpoint endpoint(net::TcpListener("127.0.0.1", 0), config);
  SubsolveWorkers workers(endpoint.port(), 2);
  ASSERT_TRUE(endpoint.wait_for_workers(2, std::chrono::seconds(10)));

  mw::ConcurrentOptions options;
  options.remote = &endpoint;
  options.retry.max_attempts = 1;
  options.retry.respawn_budget = 0;
  const auto remote = mw::solve_concurrent(program, options);

  EXPECT_TRUE(remote.protocol.faults.degraded);
  EXPECT_EQ(remote.protocol.faults.abandoned, grid::component_count(program.level));
  EXPECT_EQ(remote.solve.combined.max_diff(seq.combined), 0.0);
  endpoint.shutdown();
}

}  // namespace
