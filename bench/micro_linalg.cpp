// Micro-benchmarks of the numerical substrates: the sparse/banded kernels
// that dominate subsolve ("a linear system of equations (Ax = b) is solved
// for every time step ... this A matrix must be built up in the program
// which takes a lot of time").
#include <benchmark/benchmark.h>

#include "grid/combination.hpp"
#include "grid/prolongation.hpp"
#include "linalg/banded.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/precond.hpp"
#include "rosenbrock/ros2.hpp"
#include "transport/subsolve.hpp"
#include "transport/system.hpp"

namespace {

using namespace mg;

transport::TransportSystem make_system(int lx, int ly,
                                       transport::StageSolverKind kind =
                                           transport::StageSolverKind::BandedLU) {
  transport::SystemOptions options;
  options.solver = kind;
  return transport::TransportSystem(grid::Grid2D(2, lx, ly), transport::TransportProblem{},
                                    options);
}

// TransportSystem construction: the five stencil weights, the CSR Jacobian
// written from them, the boundary couplings and the diagonal offsets.
// G(2;0,6) is the level-6 combination's widest grid.
void BM_JacobianAssembly(benchmark::State& state) {
  const int lx = static_cast<int>(state.range(0)), ly = static_cast<int>(state.range(1));
  for (auto _ : state) {
    auto system = make_system(lx, ly);
    benchmark::DoNotOptimize(system.jacobian().nnz());
  }
  state.SetLabel(grid::Grid2D(2, lx, ly).name());
}
BENCHMARK(BM_JacobianAssembly)->Args({2, 2})->Args({3, 3})->Args({0, 6})->Args({4, 4});

// F(t, u) = J u + g(t) at a repeated t, as ROS2 calls it: J applied from its
// stencil, plus the stored boundary terms.
void BM_Rhs(benchmark::State& state) {
  const int lx = static_cast<int>(state.range(0)), ly = static_cast<int>(state.range(1));
  auto system = make_system(lx, ly);
  linalg::Vec u(system.dimension()), f;
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = 0.25 + 1e-3 * static_cast<double>(i % 97);
  for (auto _ : state) {
    system.rhs(0.125, u, f);
    benchmark::DoNotOptimize(f.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(system.jacobian().nnz()));
  state.SetLabel(grid::Grid2D(2, lx, ly).name());
}
BENCHMARK(BM_Rhs)->Args({3, 3})->Args({0, 6});

void BM_Spmv(benchmark::State& state) {
  auto system = make_system(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  const auto& a = system.jacobian();
  linalg::Vec x(a.cols(), 1.0), y;
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_Spmv)->Arg(3)->Arg(4)->Arg(5);

// Cache hit: gamma*h unchanged, the factors are reused outright.  The ratio
// to BM_StagePrepareRefresh is the headline prepare_stage speedup.
void BM_StagePrepareCacheHit(benchmark::State& state) {
  auto system = make_system(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  linalg::Vec u(system.dimension(), 0.5);
  { auto warmup = system.prepare_stage(0.0, u, 0.01); }  // pay the first-build miss
  for (auto _ : state) {
    auto solver = system.prepare_stage(0.0, u, 0.01);
    benchmark::DoNotOptimize(solver.get());
  }
}
BENCHMARK(BM_StagePrepareCacheHit)->Arg(2)->Arg(3)->Arg(4);

// Cache refresh: gamma*h alternates, so every preparation updates values in
// place and refactorises — the adaptive controller's steady state.
void BM_StagePrepareRefresh(benchmark::State& state) {
  auto system = make_system(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  linalg::Vec u(system.dimension(), 0.5);
  double gamma_h = 0.01;
  for (auto _ : state) {
    gamma_h = gamma_h == 0.01 ? 0.02 : 0.01;
    auto solver = system.prepare_stage(0.0, u, gamma_h);
    benchmark::DoNotOptimize(solver.get());
  }
}
BENCHMARK(BM_StagePrepareRefresh)->Arg(2)->Arg(3)->Arg(4);

// The O(nnz) single-pass diagonal extraction.
void BM_CsrDiagonal(benchmark::State& state) {
  auto system = make_system(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  const auto& a = system.jacobian();
  for (auto _ : state) {
    auto d = a.diagonal();
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_CsrDiagonal)->Arg(3)->Arg(4)->Arg(5);

// The replaced per-row at(i, i) probe, inlined here as the baseline: each
// at() binary-searches/scans the row from scratch.
void BM_CsrDiagonalPerRowProbe(benchmark::State& state) {
  auto system = make_system(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  const auto& a = system.jacobian();
  for (auto _ : state) {
    linalg::Vec d(a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) d[i] = a.at(i, i);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_CsrDiagonalPerRowProbe)->Arg(3)->Arg(4)->Arg(5);

void BM_StageSolve(benchmark::State& state) {
  const auto kind = static_cast<transport::StageSolverKind>(state.range(1));
  auto system = make_system(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)), kind);
  linalg::Vec u(system.dimension(), 0.5), f(system.dimension()), x;
  system.rhs(0.0, u, f);
  auto solver = system.prepare_stage(0.0, u, 0.01);
  for (auto _ : state) {
    x.clear();  // cold start: the Krylov solver seeds an empty x with zeros
    solver->solve(f, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetLabel(to_string(kind));
}
BENCHMARK(BM_StageSolve)
    ->Args({3, 0})  // banded LU, G(2;3,3): the level-6 critical grid, half-width 31
    ->Args({4, 0})  // banded LU
    ->Args({4, 1});  // bicgstab + ilu0

// Warm-started Krylov stage solve: x keeps the previous solution, so each
// iteration after the first starts next to the answer — an upper bound on
// the warm-start win (under ROS2 the seed is the other stage's k, not the
// same system's own solution).
void BM_StageSolveWarm(benchmark::State& state) {
  const auto kind = static_cast<transport::StageSolverKind>(state.range(1));
  auto system = make_system(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)),
                            kind);
  linalg::Vec u(system.dimension(), 0.5), f(system.dimension()), x;
  system.rhs(0.0, u, f);
  auto solver = system.prepare_stage(0.0, u, 0.01);
  solver->solve(f, x);  // pay the cold solve once
  for (auto _ : state) {
    solver->solve(f, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetLabel(to_string(kind));
}
BENCHMARK(BM_StageSolveWarm)->Args({4, 1});  // bicgstab + ilu0

void BM_Ros2Subsolve(benchmark::State& state) {
  const grid::Grid2D g(2, static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  transport::SubsolveConfig config;
  config.le_tol = 1e-3;
  for (auto _ : state) {
    auto r = transport::subsolve(g, config);
    benchmark::DoNotOptimize(r.stats.accepted);
  }
}
BENCHMARK(BM_Ros2Subsolve)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

// Fused out = y + alpha*x with dot(out, out) in the same sweep...
void BM_AxpyDotFused(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Vec x(n, 0.25), y(n, 0.5), out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::axpy_dot(-0.3, x, y, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AxpyDotFused)->Arg(1 << 12)->Arg(1 << 16);

// ...versus the unfused copy + axpy + dot sequence it replaced in BiCGSTAB.
void BM_AxpyDotSeparate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Vec x(n, 0.25), y(n, 0.5), out;
  for (auto _ : state) {
    out = y;
    linalg::axpy(-0.3, x, out);
    benchmark::DoNotOptimize(linalg::dot(out, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AxpyDotSeparate)->Arg(1 << 12)->Arg(1 << 16);

// Fused residual y = b - Ax versus multiply-then-subtract.
void BM_MultiplySub(benchmark::State& state) {
  auto system = make_system(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)));
  const auto& a = system.jacobian();
  linalg::Vec x(a.cols(), 1.0), b(a.rows(), 2.0), y;
  for (auto _ : state) {
    linalg::multiply_sub(a, b, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_MultiplySub)->Arg(4)->Arg(5);

void BM_Prolongate(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  grid::Field coarse(grid::Grid2D(2, 0, level));
  coarse.sample([](double x, double y) { return x * y; });
  const grid::Grid2D fine = grid::finest_grid(2, level);
  for (auto _ : state) {
    auto f = grid::prolongate(coarse, fine);
    benchmark::DoNotOptimize(f.data().data());
  }
}
BENCHMARK(BM_Prolongate)->Arg(3)->Arg(5);

// One level-6 combination term: G(2;lx,6-lx) folded onto the finest grid
// G(2;6,6).  lx = 0, 3, 6 give (rx, ry) = (64, 1), (8, 8), (1, 64).
void BM_ProlongateAdd(benchmark::State& state) {
  const int lx = static_cast<int>(state.range(0));
  grid::Field coarse(grid::Grid2D(2, lx, 6 - lx));
  coarse.sample([](double x, double y) { return x * y + 0.5 * x; });
  grid::Field fine(grid::finest_grid(2, 6), 0.0);
  for (auto _ : state) {
    grid::prolongate_add(-1.0, coarse, fine);
    benchmark::DoNotOptimize(fine.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fine.size()));
  state.SetLabel(coarse.grid().name());
}
BENCHMARK(BM_ProlongateAdd)->Arg(0)->Arg(3)->Arg(6);

}  // namespace

BENCHMARK_MAIN();
