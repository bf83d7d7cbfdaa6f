// Unit and property tests for the linear-algebra substrate: vector kernels,
// CSR matrices, banded LU, preconditioners, and BiCGSTAB.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/banded.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/csr.hpp"
#include "linalg/precond.hpp"
#include "linalg/vector_ops.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace {

using namespace mg::linalg;
using mg::support::ContractViolation;
using mg::support::Xoshiro256;

// Dense random diagonally-dominant test matrix in CSR form.
CsrMatrix random_dominant_matrix(std::size_t n, double density, Xoshiro256& rng) {
  CsrBuilder builder(n, n);
  std::vector<double> row_abs(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform01() < density) {
        const double v = rng.uniform(-1.0, 1.0);
        builder.add(i, j, v);
        row_abs[i] += std::abs(v);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, row_abs[i] + 1.0 + rng.uniform01());
  return builder.build();
}

// ---- vector ops -------------------------------------------------------------

TEST(VectorOps, AxpyAddsScaled) {
  Vec x{1, 2, 3}, y{10, 20, 30};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (Vec{12, 24, 36}));
}

TEST(VectorOps, AxpyRejectsSizeMismatch) {
  Vec x{1, 2}, y{1};
  EXPECT_THROW(axpy(1.0, x, y), ContractViolation);
}

TEST(VectorOps, AxpbyCombines) {
  Vec x{1, 1}, y{2, 4};
  axpby(3.0, x, 0.5, y);
  EXPECT_EQ(y, (Vec{4, 5}));
}

TEST(VectorOps, DotAndNorms) {
  Vec a{3, 4}, b{1, 2};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vec{-7, 2, 6}), 7.0);
}

TEST(VectorOps, WrmsNormOfWeightedUnitIsOne) {
  // v_i == atol and ref == 0 => each term is 1 => wrms == 1.
  Vec v{1e-3, 1e-3, 1e-3}, ref{0, 0, 0};
  EXPECT_NEAR(wrms_norm(v, ref, 1e-3, 1e-3), 1.0, 1e-12);
}

TEST(VectorOps, WrmsNormScalesWithReference) {
  Vec v{0.1}, ref{100.0};
  // weight = atol + rtol*|ref| = 1e-6 + 1e-3*100 ~ 0.1 => ratio ~ 1.
  EXPECT_NEAR(wrms_norm(v, ref, 1e-6, 1e-3), 1.0, 1e-4);
}

TEST(VectorOps, SubtractAndScaleAndFill) {
  Vec a{5, 7}, b{2, 3}, out;
  subtract(a, b, out);
  EXPECT_EQ(out, (Vec{3, 4}));
  scale(out, 2.0);
  EXPECT_EQ(out, (Vec{6, 8}));
  fill(out, 0.0);
  EXPECT_EQ(out, (Vec{0, 0}));
}

// ---- CSR ---------------------------------------------------------------------

TEST(Csr, BuilderSortsAndMergesDuplicates) {
  CsrBuilder builder(2, 3);
  builder.add(0, 2, 1.0);
  builder.add(0, 0, 2.0);
  builder.add(0, 2, 0.5);  // duplicate coordinate accumulates
  builder.add(1, 1, 3.0);
  const CsrMatrix m = builder.build();
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
}

TEST(Csr, MultiplyMatchesManual) {
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 3.0);
  const CsrMatrix m = builder.build();
  Vec y;
  m.multiply(Vec{1.0, 1.0}, y);
  EXPECT_EQ(y, (Vec{3.0, 3.0}));
}

TEST(Csr, ResidualIsBMinusAx) {
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 2.0);
  builder.add(1, 1, 4.0);
  const CsrMatrix m = builder.build();
  Vec r;
  m.residual(Vec{10.0, 10.0}, Vec{1.0, 1.0}, r);
  EXPECT_EQ(r, (Vec{8.0, 6.0}));
}

TEST(Csr, DiagonalExtraction) {
  Xoshiro256 rng(3);
  const CsrMatrix m = random_dominant_matrix(10, 0.3, rng);
  const Vec d = m.diagonal();
  for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d[i], m.at(i, i));
}

TEST(Csr, SamePatternDetectsEquality) {
  Xoshiro256 rng(4);
  const CsrMatrix a = random_dominant_matrix(8, 0.3, rng);
  CsrMatrix b = a;
  EXPECT_TRUE(a.same_pattern(b));
  b.values()[0] += 1.0;  // values differ, pattern unchanged
  EXPECT_TRUE(a.same_pattern(b));
}

TEST(Csr, ValidationRejectsBadRowPtr) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), ContractViolation);
}

TEST(Csr, ValidationRejectsUnsortedColumns) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}), ContractViolation);
}

TEST(Csr, ShiftedIdentityComputesIMinusGammaA) {
  CsrBuilder builder(3, 3);
  builder.add(0, 1, 2.0);  // row without a stored diagonal
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 5.0);
  builder.add(2, 2, 4.0);
  const CsrMatrix a = builder.build();
  const CsrMatrix s = shifted_identity(a, 1.0, -0.5);  // I - 0.5 A
  EXPECT_DOUBLE_EQ(s.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(s.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(s.at(1, 0), -0.5);
  EXPECT_DOUBLE_EQ(s.at(1, 1), 1.0 - 2.5);
  EXPECT_DOUBLE_EQ(s.at(2, 2), 1.0 - 2.0);
}

TEST(Csr, ShiftedIdentityPropertyAgainstMultiply) {
  Xoshiro256 rng(5);
  const CsrMatrix a = random_dominant_matrix(12, 0.25, rng);
  const CsrMatrix s = shifted_identity(a, 1.0, -0.3);
  Vec x(12);
  for (auto& v : x) v = rng.uniform(-1, 1);
  Vec ax, sx;
  a.multiply(x, ax);
  s.multiply(x, sx);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(sx[i], x[i] - 0.3 * ax[i], 1e-12);
}

// ---- banded -------------------------------------------------------------------

TEST(Banded, AtAndSetRespectBand) {
  BandedMatrix m(5, 1);
  m.set(2, 1, 3.0);
  m.set(2, 2, 4.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 4), 0.0);       // out of band reads as zero
  EXPECT_THROW(m.set(0, 4, 1.0), ContractViolation);
}

TEST(Banded, FromCsrRejectsOutOfBand) {
  CsrBuilder builder(4, 4);
  builder.add(0, 3, 1.0);
  for (std::size_t i = 0; i < 4; ++i) builder.add(i, i, 2.0);
  const CsrMatrix a = builder.build();
  EXPECT_THROW(BandedMatrix::from_csr(a, 1), ContractViolation);
  EXPECT_NO_THROW(BandedMatrix::from_csr(a, 3));
}

TEST(Banded, SolveTridiagonalKnownSolution) {
  // -u'' discretised: A = tridiag(-1, 2, -1), solve A x = b with known x.
  const std::size_t n = 50;
  BandedMatrix m(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    m.set(i, i, 2.0);
    if (i > 0) m.set(i, i - 1, -1.0);
    if (i + 1 < n) m.set(i, i + 1, -1.0);
  }
  Vec x_true(n), b(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = std::sin(0.1 * static_cast<double>(i));
  m.multiply(x_true, b);
  m.factorize();
  Vec x;
  m.solve(b, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Banded, SolveMatchesCsrOnRandomBandedSystem) {
  Xoshiro256 rng(7);
  const std::size_t n = 30, hb = 4;
  CsrBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_abs = 0.0;
    for (std::size_t j = (i >= hb ? i - hb : 0); j <= std::min(n - 1, i + hb); ++j) {
      if (i == j) continue;
      const double v = rng.uniform(-1, 1);
      builder.add(i, j, v);
      row_abs += std::abs(v);
    }
    builder.add(i, i, row_abs + 1.5);
  }
  const CsrMatrix a = builder.build();
  BandedMatrix band = BandedMatrix::from_csr(a, hb);
  Vec x_true(n);
  for (auto& v : x_true) v = rng.uniform(-2, 2);
  Vec b;
  a.multiply(x_true, b);
  band.factorize();
  Vec x;
  band.solve(b, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Banded, FactorizeRejectsZeroPivot) {
  BandedMatrix m(2, 1);
  m.set(0, 0, 0.0);
  m.set(1, 1, 1.0);
  EXPECT_THROW(m.factorize(), std::runtime_error);
}

TEST(Banded, SolveBeforeFactorizeIsRejected) {
  BandedMatrix m(3, 1);
  Vec x;
  EXPECT_THROW(m.solve(Vec{1, 2, 3}, x), ContractViolation);
}

TEST(Banded, MultiplyAfterFactorizeIsRejected) {
  BandedMatrix m(3, 1);
  for (std::size_t i = 0; i < 3; ++i) m.set(i, i, 1.0);
  m.factorize();
  Vec y;
  EXPECT_THROW(m.multiply(Vec{1, 1, 1}, y), ContractViolation);
}

// ---- preconditioners ------------------------------------------------------------

TEST(Precond, Ilu0IsExactForTriangularMatrix) {
  // For a lower-triangular matrix, ILU(0) is an exact factorisation.
  CsrBuilder builder(4, 4);
  builder.add(0, 0, 2.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 3.0);
  builder.add(2, 1, -1.0);
  builder.add(2, 2, 4.0);
  builder.add(3, 3, 5.0);
  const CsrMatrix a = builder.build();
  Ilu0Preconditioner ilu(a);
  Vec x_true{1.0, -2.0, 0.5, 3.0}, b, z;
  a.multiply(x_true, b);
  ilu.apply(b, z);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(z[i], x_true[i], 1e-12);
}

TEST(Precond, Ilu0RequiresStructuralDiagonal) {
  CsrBuilder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  EXPECT_THROW(Ilu0Preconditioner{builder.build()}, std::runtime_error);
}

TEST(Precond, FactoryProducesAllKinds) {
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, 1.0);
  const CsrMatrix a = builder.build();
  EXPECT_STREQ(make_preconditioner(PrecondKind::Identity, a)->name(), "identity");
  EXPECT_STREQ(make_preconditioner(PrecondKind::Ilu0, a)->name(), "ilu0");
}

// ---- BiCGSTAB -------------------------------------------------------------------

TEST(Bicgstab, SolvesIdentityInstantly) {
  CsrBuilder builder(3, 3);
  for (std::size_t i = 0; i < 3; ++i) builder.add(i, i, 1.0);
  const CsrMatrix a = builder.build();
  Vec x;
  IdentityPreconditioner m;
  const auto report = bicgstab(a, Vec{1, 2, 3}, x, m);
  EXPECT_TRUE(report.converged);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], static_cast<double>(i + 1), 1e-10);
}

TEST(Bicgstab, ZeroRhsConvergesToZeroWithoutIterating) {
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 2.0);
  builder.add(1, 1, 2.0);
  const CsrMatrix a = builder.build();
  Vec x;
  IdentityPreconditioner m;
  const auto report = bicgstab(a, Vec{0.0, 0.0}, x, m);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, 0u);
}

struct BicgstabParam {
  PrecondKind kind;
  std::size_t n;
  std::uint64_t seed;
};

// Names the test instance by preconditioner and size.  gtest's default
// prints the raw bytes, padding included, so the name would change from run
// to run.
void PrintTo(const BicgstabParam& param, std::ostream* os) {
  static const char* const kKindNames[] = {"identity", "ilu0"};
  *os << kKindNames[static_cast<int>(param.kind)] << "_n" << param.n;
}

class BicgstabRandomSystems : public ::testing::TestWithParam<BicgstabParam> {};

TEST_P(BicgstabRandomSystems, RecoversKnownSolution) {
  const auto param = GetParam();
  Xoshiro256 rng(param.seed);
  const CsrMatrix a = random_dominant_matrix(param.n, 0.2, rng);
  Vec x_true(param.n);
  for (auto& v : x_true) v = rng.uniform(-3, 3);
  Vec b;
  a.multiply(x_true, b);
  auto precond = make_preconditioner(param.kind, a);
  Vec x;
  SolveOptions opts;
  opts.rel_tol = 1e-12;
  const auto report = bicgstab(a, b, x, *precond, opts);
  ASSERT_TRUE(report.converged) << "precond=" << precond->name();
  for (std::size_t i = 0; i < param.n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    AllPreconditioners, BicgstabRandomSystems,
    ::testing::Values(BicgstabParam{PrecondKind::Identity, 40, 11},
                      BicgstabParam{PrecondKind::Ilu0, 40, 13},
                      BicgstabParam{PrecondKind::Identity, 100, 14},
                      BicgstabParam{PrecondKind::Ilu0, 100, 16}));

TEST(Bicgstab, Ilu0NeedsFewerIterationsThanIdentity) {
  Xoshiro256 rng(21);
  const CsrMatrix a = random_dominant_matrix(120, 0.1, rng);
  Vec x_true(120);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  Vec b;
  a.multiply(x_true, b);

  Vec x1, x2;
  IdentityPreconditioner identity;
  Ilu0Preconditioner ilu(a);
  const auto r1 = bicgstab(a, b, x1, identity);
  const auto r2 = bicgstab(a, b, x2, ilu);
  ASSERT_TRUE(r1.converged && r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations);
}

TEST(Bicgstab, ReportsNonConvergenceWhenIterationBudgetTooSmall) {
  Xoshiro256 rng(22);
  const CsrMatrix a = random_dominant_matrix(200, 0.05, rng);
  Vec x_true(200);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  Vec b;
  a.multiply(x_true, b);
  Vec x;
  IdentityPreconditioner m;
  SolveOptions opts;
  opts.max_iter = 1;
  opts.rel_tol = 1e-14;
  const auto report = bicgstab(a, b, x, m, opts);
  EXPECT_FALSE(report.converged);
  EXPECT_GT(report.residual_norm, 0.0);
}

TEST(Bicgstab, UsesInitialGuess) {
  CsrBuilder builder(2, 2);
  builder.add(0, 0, 3.0);
  builder.add(1, 1, 3.0);
  const CsrMatrix a = builder.build();
  Vec x{2.0, 4.0};  // exact solution of A x = (6, 12)
  IdentityPreconditioner m;
  const auto report = bicgstab(a, Vec{6.0, 12.0}, x, m);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, 0u);  // converged on the initial guess
}

}  // namespace
