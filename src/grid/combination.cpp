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

TermOrderFold::TermOrderFold(std::vector<CombinationTerm> terms, const Grid2D& fine)
    : terms_(std::move(terms)), waiting_(terms_.size(), nullptr), sum_(fine, 0.0) {}

void TermOrderFold::add(std::size_t k, const Field& component) {
  MG_REQUIRE(!has(k));
  MG_REQUIRE(component.grid() == terms_[k].grid);
  waiting_[k] = &component;
  for (; next_ < terms_.size() && waiting_[next_] != nullptr; ++next_) {
    prolongate_add(terms_[next_].coefficient, *waiting_[next_], sum_);
    waiting_[next_] = nullptr;
  }
}

bool TermOrderFold::has(std::size_t k) const {
  MG_REQUIRE(k < terms_.size());
  return k < next_ || waiting_[k] != nullptr;
}

Field TermOrderFold::take() {
  MG_REQUIRE(next_ == terms_.size());
  return std::move(sum_);
}

Field combine(const std::vector<CombinationTerm>& terms, const std::vector<Field>& components,
              const Grid2D& fine) {
  MG_REQUIRE(terms.size() == components.size());
  TermOrderFold fold(terms, fine);
  for (std::size_t k = 0; k < terms.size(); ++k) fold.add(k, components[k]);
  return fold.take();
}

std::size_t component_count(int level) {
  MG_REQUIRE(level >= 0);
  return static_cast<std::size_t>(2 * level + 1);
}

}  // namespace mg::grid
