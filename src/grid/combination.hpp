// The sparse-grid combination technique (Griebel/Schneider/Zenger) as used
// by the paper's application.
//
// The paper's nested loop
//     for (lm = level-1; lm <= level; lm++)
//       for (l = 0; l <= lm; l++)
//         subsolve(l, lm - l);
// visits the two diagonal grid families {(l, lm-l)} for lm = level-1 and
// lm = level.  The combined solution on the finest grid (level, level) is
//     u_hat = sum_{l+m = level} P u_{l,m}  -  sum_{l+m = level-1} P u_{l,m},
// where P is bilinear prolongation.  For level = 0 the lower family is empty
// (the paper's loop body never executes for lm = -1) and u_hat = u_{0,0}.
//
// Total number of component grids = 2*level + 1, which is exactly the
// paper's worker count w = 2l + 1 (§7).
#pragma once

#include <vector>

#include "grid/field.hpp"
#include "grid/prolongation.hpp"

namespace mg::grid {

/// One component grid in the combination with its coefficient (+1 or -1).
struct CombinationTerm {
  Grid2D grid;
  double coefficient;
  int family;  ///< the lm value this grid belongs to (level or level-1)
};

/// Enumerates the grids of family lm: (0, lm), (1, lm-1), ..., (lm, 0).
/// Empty for lm < 0 (matches the paper's loop for level = 0).
std::vector<Grid2D> family_grids(int root, int lm);

/// All 2*level+1 combination terms for the given target level, in the
/// paper's visit order (lm = level-1 family first, then lm = level).
std::vector<CombinationTerm> combination_terms(int root, int level);

/// The target (finest) grid of the combination: (level, level).
Grid2D finest_grid(int root, int level);

/// Prolongates every component field onto the finest grid and accumulates
/// with the matching coefficients, one fused pass per term (prolongate_add).
/// `components[k]` must live on `terms[k].grid`.
Field combine(const std::vector<CombinationTerm>& terms, const std::vector<Field>& components,
              const Grid2D& fine);

/// Number of component grids for a level (= paper's worker count 2*level+1).
std::size_t component_count(int level);

}  // namespace mg::grid
