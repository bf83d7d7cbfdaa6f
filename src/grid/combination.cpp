#include "grid/combination.hpp"

#include "support/check.hpp"

namespace mg::grid {

std::vector<Grid2D> family_grids(int root, int lm) {
  std::vector<Grid2D> grids;
  if (lm < 0) return grids;
  grids.reserve(static_cast<std::size_t>(lm) + 1);
  for (int l = 0; l <= lm; ++l) grids.emplace_back(root, l, lm - l);
  return grids;
}

std::vector<CombinationTerm> combination_terms(int root, int level) {
  MG_REQUIRE(level >= 0);
  std::vector<CombinationTerm> terms;
  terms.reserve(component_count(level));
  for (const Grid2D& g : family_grids(root, level - 1)) terms.push_back({g, -1.0, level - 1});
  for (const Grid2D& g : family_grids(root, level)) terms.push_back({g, +1.0, level});
  return terms;
}

Grid2D finest_grid(int root, int level) { return Grid2D(root, level, level); }

Field combine(const std::vector<CombinationTerm>& terms, const std::vector<Field>& components,
              const Grid2D& fine) {
  MG_REQUIRE(terms.size() == components.size());
  Field result(fine, 0.0);
  for (std::size_t k = 0; k < terms.size(); ++k) {
    MG_REQUIRE(components[k].grid() == terms[k].grid);
    prolongate_add(terms[k].coefficient, components[k], result);
  }
  return result;
}

std::size_t component_count(int level) {
  MG_REQUIRE(level >= 0);
  return static_cast<std::size_t>(2 * level + 1);
}

}  // namespace mg::grid
