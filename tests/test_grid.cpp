// Tests for the grid module: anisotropic grids, fields, bilinear
// prolongation, and the sparse-grid combination machinery that mirrors the
// paper's nested loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "grid/combination.hpp"
#include "grid/field.hpp"
#include "grid/grid2d.hpp"
#include "grid/prolongation.hpp"
#include "support/check.hpp"

namespace {

using namespace mg::grid;
using mg::support::ContractViolation;

// ---- Grid2D ------------------------------------------------------------------

TEST(Grid2D, CellCountsArePowersOfTwo) {
  const Grid2D g(2, 3, 1);
  EXPECT_EQ(g.cells_x(), 32u);  // 2^(2+3)
  EXPECT_EQ(g.cells_y(), 8u);   // 2^(2+1)
  EXPECT_EQ(g.nodes_x(), 33u);
  EXPECT_EQ(g.nodes_y(), 9u);
  EXPECT_EQ(g.node_count(), 33u * 9u);
  EXPECT_EQ(g.interior_count(), 31u * 7u);
}

TEST(Grid2D, SpacingMatchesCells) {
  const Grid2D g(2, 1, 0);
  EXPECT_DOUBLE_EQ(g.hx(), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(g.hy(), 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(g.x(8), 1.0);
  EXPECT_DOUBLE_EQ(g.y(2), 0.5);
}

TEST(Grid2D, NodeIndexIsLexicographic) {
  const Grid2D g(1, 0, 0);  // 3x3 nodes
  EXPECT_EQ(g.node_index(0, 0), 0u);
  EXPECT_EQ(g.node_index(2, 0), 2u);
  EXPECT_EQ(g.node_index(0, 1), 3u);
  EXPECT_EQ(g.node_index(2, 2), 8u);
}

TEST(Grid2D, InteriorIndexSkipsBoundary) {
  const Grid2D g(2, 0, 0);  // 5x5 nodes, 3x3 interior
  EXPECT_EQ(g.interior_index(1, 1), 0u);
  EXPECT_EQ(g.interior_index(3, 3), 8u);
  EXPECT_THROW(g.interior_index(0, 1), ContractViolation);
  EXPECT_THROW(g.interior_index(4, 1), ContractViolation);
}

TEST(Grid2D, BoundaryDetection) {
  const Grid2D g(2, 0, 0);
  EXPECT_TRUE(g.is_boundary(0, 2));
  EXPECT_TRUE(g.is_boundary(4, 4));
  EXPECT_FALSE(g.is_boundary(2, 2));
}

TEST(Grid2D, EqualityAndName) {
  EXPECT_EQ(Grid2D(2, 1, 3), Grid2D(2, 1, 3));
  EXPECT_FALSE(Grid2D(2, 1, 3) == Grid2D(2, 3, 1));
  EXPECT_EQ(Grid2D(2, 1, 3).name(), "G(2;1,3)");
}

TEST(Grid2D, RejectsDegenerateRoot) {
  // root 0 with lx 0 gives 1 cell -> no interior nodes.
  EXPECT_THROW(Grid2D(0, 0, 0), ContractViolation);
  EXPECT_NO_THROW(Grid2D(1, 0, 0));
}

TEST(Grid2D, RejectsNegativeExponents) {
  EXPECT_THROW(Grid2D(2, -1, 0), ContractViolation);
  EXPECT_THROW(Grid2D(-1, 1, 1), ContractViolation);
}

// ---- Field -------------------------------------------------------------------

TEST(Field, SampleEvaluatesAtNodes) {
  Field f(Grid2D(1, 0, 0));
  f.sample([](double x, double y) { return x + 10.0 * y; });
  EXPECT_DOUBLE_EQ(f.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(f.at(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(f.at(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(f.at(1, 1), 0.5 + 5.0);
}

TEST(Field, AddScaledAccumulates) {
  const Grid2D g(1, 0, 0);
  Field a(g, 1.0), b(g, 2.0);
  a.add_scaled(3.0, b);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 7.0);
}

TEST(Field, AddScaledRequiresSameGrid) {
  Field a(Grid2D(1, 0, 0)), b(Grid2D(1, 1, 0));
  EXPECT_THROW(a.add_scaled(1.0, b), ContractViolation);
}

TEST(Field, MaxDiffAndErrors) {
  const Grid2D g(1, 0, 0);
  Field a(g, 1.0), b(g, 1.0);
  b.at(2, 1) = 1.5;
  EXPECT_DOUBLE_EQ(a.max_diff(b), 0.5);
  EXPECT_DOUBLE_EQ(a.max_error([](double, double) { return 1.0; }), 0.0);
  EXPECT_GT(a.l2_error([](double, double) { return 0.0; }), 0.0);
}

// ---- prolongation --------------------------------------------------------------

TEST(Prolongation, IdentityWhenGridsMatch) {
  const Grid2D g(2, 1, 1);
  Field f(g);
  f.sample([](double x, double y) { return std::sin(x) * std::cos(y); });
  const Field p = prolongate(f, g);
  EXPECT_DOUBLE_EQ(p.max_diff(f), 0.0);
}

struct ProlongationCase {
  int c_lx, c_ly, f_lx, f_ly;
};

class ProlongationExactness : public ::testing::TestWithParam<ProlongationCase> {};

TEST_P(ProlongationExactness, BilinearFunctionsAreReproducedExactly) {
  const auto p = GetParam();
  const Grid2D coarse_grid(2, p.c_lx, p.c_ly);
  const Grid2D fine_grid(2, p.f_lx, p.f_ly);
  // Bilinear interpolation is exact for a + bx + cy + dxy.
  auto bilinear = [](double x, double y) { return 1.5 - 2.0 * x + 0.75 * y + 3.0 * x * y; };
  Field coarse(coarse_grid);
  coarse.sample(bilinear);
  const Field fine = prolongate(coarse, fine_grid);
  EXPECT_LT(fine.max_error(bilinear), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(GridPairs, ProlongationExactness,
                         ::testing::Values(ProlongationCase{0, 0, 2, 2},
                                           ProlongationCase{1, 0, 3, 3},
                                           ProlongationCase{0, 3, 3, 3},
                                           ProlongationCase{2, 1, 2, 3},
                                           ProlongationCase{1, 2, 4, 2}));

TEST(Prolongation, CoarseNodesAreCopiedExactly) {
  const Grid2D coarse_grid(2, 0, 1);
  const Grid2D fine_grid(2, 2, 2);
  Field coarse(coarse_grid);
  coarse.sample([](double x, double y) { return std::exp(x - y); });
  const Field fine = prolongate(coarse, fine_grid);
  const std::size_t rx = fine_grid.cells_x() / coarse_grid.cells_x();
  const std::size_t ry = fine_grid.cells_y() / coarse_grid.cells_y();
  for (std::size_t j = 0; j < coarse_grid.nodes_y(); ++j) {
    for (std::size_t i = 0; i < coarse_grid.nodes_x(); ++i) {
      EXPECT_NEAR(fine.at(i * rx, j * ry), coarse.at(i, j), 1e-14);
    }
  }
}

TEST(Prolongation, SecondOrderConvergenceForSmoothFunction) {
  // Interpolating a smooth function from level l to a fixed fine grid has
  // error O(h^2): refining the coarse grid by 2 cuts the error by ~4.
  auto smooth = [](double x, double y) { return std::sin(3.0 * x + 1.0) * std::cos(2.0 * y); };
  const Grid2D fine_grid(2, 4, 4);
  double previous = 0.0;
  for (int l = 0; l <= 2; ++l) {
    Field coarse(Grid2D(2, l, l));
    coarse.sample(smooth);
    const double err = prolongate(coarse, fine_grid).max_error(smooth);
    if (l > 0) {
      EXPECT_LT(err, previous / 3.0);
    }
    previous = err;
  }
}

TEST(Prolongation, RejectsFinerToCoarser) {
  Field fine(Grid2D(2, 2, 2));
  EXPECT_THROW(prolongate(fine, Grid2D(2, 1, 2)), ContractViolation);
}

TEST(Prolongation, RejectsRootMismatch) {
  Field coarse(Grid2D(2, 0, 0));
  EXPECT_THROW(prolongate(coarse, Grid2D(3, 1, 1)), ContractViolation);
}

// ---- combination ---------------------------------------------------------------

TEST(Combination, FamilyEnumerationMatchesPaperLoop) {
  // for (l = 0; l <= lm; l++) subsolve(l, lm - l)
  const auto family = family_grids(2, 3);
  ASSERT_EQ(family.size(), 4u);
  for (int l = 0; l <= 3; ++l) {
    EXPECT_EQ(family[static_cast<std::size_t>(l)].lx(), l);
    EXPECT_EQ(family[static_cast<std::size_t>(l)].ly(), 3 - l);
  }
}

TEST(Combination, FamilyIsEmptyForNegativeLm) {
  EXPECT_TRUE(family_grids(2, -1).empty());
}

TEST(Combination, TermCountIsTwoLevelPlusOne) {
  for (int level = 0; level <= 6; ++level) {
    const auto terms = combination_terms(2, level);
    EXPECT_EQ(terms.size(), component_count(level));
    EXPECT_EQ(terms.size(), static_cast<std::size_t>(2 * level + 1))
        << "the paper's worker count w = 2l + 1";
  }
}

TEST(Combination, CoefficientsSumToOne) {
  // +1 per lm=level grid, -1 per lm=level-1 grid: (level+1) - level = 1.
  for (int level = 0; level <= 6; ++level) {
    double sum = 0.0;
    for (const auto& t : combination_terms(2, level)) sum += t.coefficient;
    EXPECT_DOUBLE_EQ(sum, 1.0);
  }
}

TEST(Combination, VisitOrderIsLowerFamilyFirst) {
  const auto terms = combination_terms(2, 2);
  ASSERT_EQ(terms.size(), 5u);
  EXPECT_EQ(terms[0].family, 1);
  EXPECT_EQ(terms[0].coefficient, -1.0);
  EXPECT_EQ(terms[2].family, 2);
  EXPECT_EQ(terms[2].coefficient, 1.0);
}

TEST(Combination, LevelZeroIsJustTheRootGrid) {
  const auto terms = combination_terms(2, 0);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_EQ(terms[0].grid, Grid2D(2, 0, 0));
  EXPECT_DOUBLE_EQ(terms[0].coefficient, 1.0);
}

TEST(Combination, CombineReproducesBilinearExactly) {
  // Each component reproduces a bilinear function exactly, so the combined
  // field equals it too (coefficients sum to 1).
  const int level = 3;
  auto bilinear = [](double x, double y) { return 2.0 + x - 3.0 * y + 0.5 * x * y; };
  const auto terms = combination_terms(2, level);
  std::vector<Field> components;
  for (const auto& t : terms) {
    Field f(t.grid);
    f.sample(bilinear);
    components.push_back(std::move(f));
  }
  const Field combined = combine(terms, components, finest_grid(2, level));
  EXPECT_LT(combined.max_error(bilinear), 1e-12);
}

TEST(Combination, CombineImprovesOnSingleCoarseGrid) {
  // For a smooth non-bilinear function the combined interpolant at level L
  // should beat the single coarsest component.
  auto smooth = [](double x, double y) { return std::sin(2.5 * x) * std::exp(y); };
  const int level = 4;
  const auto terms = combination_terms(2, level);
  std::vector<Field> components;
  for (const auto& t : terms) {
    Field f(t.grid);
    f.sample(smooth);
    components.push_back(std::move(f));
  }
  const Grid2D fine = finest_grid(2, level);
  const Field combined = combine(terms, components, fine);

  Field coarsest(Grid2D(2, 0, level));
  coarsest.sample(smooth);
  const double coarse_err = prolongate(coarsest, fine).max_error(smooth);
  EXPECT_LT(combined.max_error(smooth), coarse_err);
}

TEST(Combination, FusedCombineIsBitwiseEqualToProlongatePlusAddScaled) {
  // combine() interpolates and accumulates in one pass; every node must get
  // exactly the bits of the two-step prolongate + add_scaled form.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int root = 1; root <= 3; ++root) {
    for (int level = 0; level <= 7; ++level) {
      SCOPED_TRACE("root " + std::to_string(root) + " level " + std::to_string(level));
      const auto terms = combination_terms(root, level);
      std::vector<Field> components;
      for (const auto& t : terms) {
        Field f(t.grid);
        for (double& v : f.data()) v = dist(rng);
        components.push_back(std::move(f));
      }
      const Grid2D fine = finest_grid(root, level);
      Field reference(fine, 0.0);
      for (std::size_t k = 0; k < terms.size(); ++k) {
        reference.add_scaled(terms[k].coefficient, prolongate(components[k], fine));
      }
      const Field fused = combine(terms, components, fine);
      ASSERT_EQ(fused.size(), reference.size());
      EXPECT_EQ(std::memcmp(fused.data().data(), reference.data().data(),
                            fused.size() * sizeof(double)),
                0);
    }
  }
}

TEST(Combination, CombineValidatesComponentGrids) {
  const auto terms = combination_terms(2, 1);
  std::vector<Field> wrong;
  for (std::size_t i = 0; i < terms.size(); ++i) wrong.emplace_back(Grid2D(2, 0, 0));
  EXPECT_THROW(combine(terms, wrong, finest_grid(2, 1)), ContractViolation);
}

TEST(Combination, FinestGridIsSquareAtLevel) {
  const Grid2D fine = finest_grid(2, 5);
  EXPECT_EQ(fine.lx(), 5);
  EXPECT_EQ(fine.ly(), 5);
}

}  // namespace
