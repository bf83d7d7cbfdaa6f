// Golden-bits checks for the linalg kernels: each kernel runs on seeded
// inputs of odd sizes (n % 4 != 0) and its output bytes are folded into a
// 64-bit FNV-1a hash that must equal a committed constant.  The constants
// were recorded from the scalar loops before the kernel-policy switch, the
// SIMD variants and the inner worker team were deleted (DESIGN.md §14), so
// this suite is the proof that the remaining loops compute the same bits.
// A kernel change that moves one rounding anywhere fails here.
//
// The StencilKernel tests hold the transport operator's stencil kernel to
// CsrMatrix::multiply, and TransportSystem::rhs to that multiply plus the
// boundary terms, byte for byte; they record no constant.
//
// Three banded solve hashes (`solution`, `rebuilt`, `refreshed`) were
// re-recorded when the back sweep changed to farthest column first with a
// multiply by the stored reciprocal pivot (DESIGN.md §9): the order takes
// the sweep off its latency chain and moves round-off only.  The factors
// did not change, so `factors` keeps its original hash.
// BandedSweepsMatchTheirReferenceLoops ties the new hashes to that order,
// written out as plain loops in this file.
//
// The hashes read IEEE-754 doubles in little-endian byte order.  Inputs are
// built only from additions, comparisons and uniform(-1, 1), whose one
// multiply is by 2 and therefore exact, so contraction to fused multiply-add
// in this file or in mg_support cannot change them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "linalg/banded.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/csr.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil.hpp"
#include "linalg/vector_ops.hpp"
#include "support/rng.hpp"
#include "transport/system.hpp"

namespace {

using namespace mg::linalg;
using mg::support::Xoshiro256;

class Fnv1a {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state_ ^= p[i];
      state_ *= 0x100000001b3ULL;
    }
  }
  void add(const Vec& v) { add(v.data(), v.size() * sizeof(double)); }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

#define EXPECT_GOLDEN(hash, golden) \
  EXPECT_EQ((hash).value(), golden) << "got " << hex((hash).value())

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

/// Diagonally dominant 5-point operator on an nx-by-ny grid, unknowns
/// numbered x-fastest — the shape of a transport stage matrix.
CsrMatrix random_five_point(std::size_t nx, std::size_t ny, Xoshiro256& rng) {
  CsrBuilder builder(nx * ny, nx * ny);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t row = j * nx + i;
      builder.add(row, row, 5.0 + rng.uniform01());
      if (i > 0) builder.add(row, row - 1, rng.uniform(-1.0, 1.0));
      if (i + 1 < nx) builder.add(row, row + 1, rng.uniform(-1.0, 1.0));
      if (j > 0) builder.add(row, row - nx, rng.uniform(-1.0, 1.0));
      if (j + 1 < ny) builder.add(row, row + nx, rng.uniform(-1.0, 1.0));
    }
  }
  return builder.build();
}

Vec random_vec(std::size_t n, Xoshiro256& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(GoldenBits, SpmvAndMultiplySub) {
  Xoshiro256 rng(17);
  Fnv1a spmv, sub;
  for (const std::size_t n : {1u, 3u, 5u, 7u, 13u, 33u, 127u}) {
    const CsrMatrix a = random_dominant_matrix(n, 0.3, rng);
    const Vec x = random_vec(n, rng);
    const Vec b = random_vec(n, rng);
    Vec y, s;
    a.multiply(x, y);
    multiply_sub(a, b, x, s);
    spmv.add(y);
    sub.add(s);
  }
  EXPECT_GOLDEN(spmv, 0xcf5502166573d7d5ULL);
  EXPECT_GOLDEN(sub, 0x1317fe6b6099de4cULL);
}

TEST(GoldenBits, AxpyAndFusedTriads) {
  Xoshiro256 rng(23);
  Fnv1a ax, pu, xu;
  for (const std::size_t n : {3u, 7u, 61u, 1001u}) {
    const Vec r = random_vec(n, rng), v = random_vec(n, rng);
    const Vec a = random_vec(n, rng), b = random_vec(n, rng);
    const double alpha = 0.37, beta = 1.21, omega = -0.83;

    Vec y = random_vec(n, rng);
    axpy(alpha, a, y);
    ax.add(y);

    Vec p = random_vec(n, rng);
    fused_p_update(beta, omega, r, v, p);
    pu.add(p);

    Vec x = random_vec(n, rng);
    fused_x_update(alpha, omega, a, b, x);
    xu.add(x);
  }
  EXPECT_GOLDEN(ax, 0x910dd06fc942ae19ULL);
  EXPECT_GOLDEN(pu, 0xb7b20986736bdd1bULL);
  EXPECT_GOLDEN(xu, 0xc2841e0257cf5ccdULL);
}

TEST(GoldenBits, BandedFactorizeAndSolve) {
  Xoshiro256 rng(31);
  Fnv1a factors, solution;
  for (const std::size_t n : {9u, 17u, 41u, 101u}) {
    for (const std::size_t hb : {1u, 3u, 7u}) {
      BandedMatrix m(n, hb);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = (i > hb ? i - hb : 0); j < std::min(n, i + hb + 1); ++j) {
          m.set(i, j, i == j ? 4.0 + rng.uniform01() : rng.uniform(-1.0, 1.0));
        }
      }
      const Vec b = random_vec(n, rng);
      m.factorize();
      Vec x;
      m.solve(b, x);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = (i > hb ? i - hb : 0); j < std::min(n, i + hb + 1); ++j) {
          const double f = m.at(i, j);
          factors.add(&f, sizeof f);
        }
      }
      solution.add(x);
    }
  }
  EXPECT_GOLDEN(factors, 0xe77784468894d3c6ULL);
  EXPECT_GOLDEN(solution, 0xadfa30b8725c3fbfULL);
}

/// The banded solve spelled out as two plain loops on the factors: the
/// forward sweep over ascending j, the back sweep over descending j (the
/// value the row below has just produced enters last), then a multiply by
/// the reciprocal pivot.  BandedFactorizeAndSolve and GridBandedLuOnAWideGrid
/// pin the bits of exactly this order.
Vec reference_solve(const BandedMatrix& lu, Vec x) {
  const std::size_t n = lu.size(), hb = lu.half_bandwidth();
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (std::size_t j = (i > hb ? i - hb : 0); j < i; ++j) s -= lu.at(i, j) * x[j];
    x[i] = s;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t j = std::min(n - 1, ii + hb); j > ii; --j) s -= lu.at(ii, j) * x[j];
    x[ii] = s * (1.0 / lu.at(ii, ii));
  }
  return x;
}

bool same_bytes(const Vec& a, const Vec& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(GoldenBits, BandedSweepsMatchTheirReferenceLoops) {
  Xoshiro256 rng(41);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 9u, 17u, 41u, 101u}) {
    // hb = n and n + 3 are bands wider than the matrix.
    for (const std::size_t hb : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7}, n,
                                 n + 3}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", hb " + std::to_string(hb));
      BandedMatrix m(n, hb);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = (i > hb ? i - hb : 0); j < std::min(n, i + hb + 1); ++j) {
          m.set(i, j, i == j ? 2.0 * static_cast<double>(hb) + 1.0 + rng.uniform01()
                             : rng.uniform(-1.0, 1.0));
        }
      }
      const Vec b = random_vec(n, rng);
      m.factorize();
      Vec x;
      m.solve(b, x);
      EXPECT_TRUE(same_bytes(x, reference_solve(m, b)));
    }
  }

  // GridBandedLU on a wide grid: the same loops on the y-fastest band.
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{31, 7}, {13, 5}}) {
    const CsrMatrix a = random_five_point(nx, ny, rng);
    const Vec b = random_vec(nx * ny, rng);
    std::vector<std::size_t> order(nx * ny);
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t i = 0; i < nx; ++i) order[j * nx + i] = i * ny + j;
    }
    BandedMatrix band = BandedMatrix::from_csr(a, ny, order);
    band.factorize();
    Vec permuted(nx * ny);
    for (std::size_t r = 0; r < nx * ny; ++r) permuted[order[r]] = b[r];
    const Vec solved = reference_solve(band, permuted);
    Vec expected(nx * ny);
    for (std::size_t r = 0; r < nx * ny; ++r) expected[r] = solved[order[r]];

    GridBandedLU lu = GridBandedLU::from_csr(a, nx, ny);
    lu.factorize();
    Vec x;
    lu.solve(b, x);
    EXPECT_TRUE(same_bytes(x, expected));
  }
}

TEST(GoldenBits, GridBandedLuOnAWideGrid) {
  // nx > ny: the band is renumbered y-fastest with half-width ny.
  Xoshiro256 rng(37);
  Fnv1a rebuilt, refreshed;
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{31, 7}, {13, 5}}) {
    const CsrMatrix a = random_five_point(nx, ny, rng);
    const Vec b = random_vec(nx * ny, rng);

    GridBandedLU lu = GridBandedLU::from_csr(a, nx, ny);
    ASSERT_EQ(lu.half_bandwidth(), ny);
    lu.factorize();
    Vec x;
    lu.solve(b, x);
    rebuilt.add(x);

    // The cached stage path: (I - gamma_h * A) written into the band in place.
    GridBandedLU stage(nx, ny);
    stage.assign_shifted_csr(a, 1.0, -0.125);
    stage.factorize();
    stage.solve(b, x);
    refreshed.add(x);
  }
  EXPECT_GOLDEN(rebuilt, 0x41134c29d53a9322ULL);
  EXPECT_GOLDEN(refreshed, 0x4d6cfe29974d2451ULL);
}

// Pins the ILU(0) apply.  The name is kept so the suite's test list stays
// stable; there is no Jacobi preconditioner any more.
TEST(GoldenBits, JacobiAndIlu0Apply) {
  Xoshiro256 rng(47);
  Fnv1a ilu_z;
  for (const std::size_t n : {5u, 27u, 141u}) {
    const CsrMatrix a = random_dominant_matrix(n, 0.25, rng);
    const Vec r = random_vec(n, rng);
    Vec z;
    Ilu0Preconditioner(a).apply(r, z);
    ilu_z.add(z);
  }
  EXPECT_GOLDEN(ilu_z, 0xf900f1e52cd8e37cULL);
}

TEST(GoldenBits, BicgstabPerPreconditioner) {
  Xoshiro256 rng(59);
  const std::size_t n = 211;
  const CsrMatrix a = random_dominant_matrix(n, 0.15, rng);
  const Vec b = random_vec(n, rng);
  const std::uint64_t golden[] = {0x8d5bd26e749d4280ULL, 0xad21461cc86c8891ULL};
  const PrecondKind kinds[] = {PrecondKind::Identity, PrecondKind::Ilu0};
  for (std::size_t k = 0; k < 2; ++k) {
    const auto precond = make_preconditioner(kinds[k], a);
    Vec x(n, 0.0);
    const SolveReport report = bicgstab(a, b, x, *precond);
    EXPECT_TRUE(report.converged) << precond->name();
    Fnv1a h;
    h.add(x);
    EXPECT_EQ(h.value(), golden[k]) << precond->name() << ": got " << hex(h.value());
  }
}

// ---- the five-point stencil kernel ---------------------------------------------

// The stencil applies itself without reading its CSR form; every row must get
// CsrMatrix::multiply's bits, on blocks one unknown wide or tall too.  A zero
// weight stays a term, and with x = -0.0 every product is -0.0, yet each row
// sums to +0.0 because multiply starts it from 0.0.
TEST(StencilKernel, MultiplyIsBitwiseEqualToCsrMultiply) {
  Xoshiro256 rng(61);
  for (const std::size_t nx : {1u, 2u, 3u, 5u, 17u}) {
    for (const std::size_t ny : {1u, 2u, 3u, 7u}) {
      SCOPED_TRACE("nx " + std::to_string(nx) + ", ny " + std::to_string(ny));
      FivePointStencil s{nx, ny, rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
                         rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)};
      if (nx == 3) s.east = 0.0;
      const CsrMatrix a = s.matrix();
      ASSERT_EQ(a.rows(), nx * ny);
      Vec signed_zeros(nx * ny, -0.0);
      for (const Vec& x : {random_vec(nx * ny, rng), signed_zeros}) {
        Vec expected, y;
        a.multiply(x, expected);
        s.multiply(x, y);
        EXPECT_TRUE(same_bytes(y, expected));
      }
    }
  }
}

// rhs = J u + g(t): J applied from the stencil, then each boundary neighbour's
// weight times the exact solution there, added per row in the order W, E, S,
// N.  The reference spells that out with CsrMatrix::multiply, at a new t and
// at a repeated one (where rhs reuses its stored terms).
TEST(StencilKernel, RhsIsCsrMultiplyPlusTheBoundaryTerms) {
  using mg::grid::Grid2D;
  namespace transport = mg::transport;
  Xoshiro256 rng(67);
  const transport::TransportProblem problem;
  for (const auto scheme : {transport::AdvectionScheme::Central2,
                            transport::AdvectionScheme::Upwind1}) {
    for (const Grid2D& g : {Grid2D(2, 2, 2), Grid2D(2, 3, 1), Grid2D(2, 1, 3), Grid2D(1, 0, 0),
                            Grid2D(1, 2, 0)}) {
      SCOPED_TRACE(g.name() + " " + std::to_string(static_cast<int>(scheme)));
      transport::SystemOptions options;
      options.scheme = scheme;
      transport::TransportSystem system(g, problem, options);
      const FivePointStencil& s = system.stencil();
      const Vec u = random_vec(system.dimension(), rng);
      for (const double t : {0.1, 0.1, 0.35}) {
        Vec expected;
        system.jacobian().multiply(u, expected);
        for (std::size_t j = 1; j <= g.interior_y(); ++j) {
          for (std::size_t i = 1; i <= g.interior_x(); ++i) {
            double& f = expected[g.interior_index(i, j)];
            auto boundary = [&](std::size_t in, std::size_t jn, double w) {
              if (g.is_boundary(in, jn)) f += w * problem.exact(g.x(in), g.y(jn), t);
            };
            boundary(i - 1, j, s.west);
            boundary(i + 1, j, s.east);
            boundary(i, j - 1, s.south);
            boundary(i, j + 1, s.north);
          }
        }
        Vec f;
        system.rhs(t, u, f);
        EXPECT_TRUE(same_bytes(f, expected)) << "t " << t;
      }
    }
  }
}

}  // namespace
