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

/// The one summation loop of the combination: accumulates the terms onto the
/// finest grid strictly in term order (one fused prolongate_add pass per
/// term), while their components arrive in any order.  Term k is added as
/// soon as terms 0..k-1 are in, so the sum has the same bits for every
/// arrival order — which lets a master fold each result as it lands instead
/// of waiting for the last one.
class TermOrderFold {
 public:
  TermOrderFold(std::vector<CombinationTerm> terms, const Grid2D& fine);

  /// Hands over term k's component, which must live on terms[k].grid, and
  /// adds every term whose lower-indexed terms are now all in.  A component
  /// that waits for a lower term is referenced, not copied: it must stay
  /// alive and unchanged until added.  Each term is handed over once.
  void add(std::size_t k, const Field& component);

  /// True once term k has been handed over (added or waiting).
  bool has(std::size_t k) const;

  /// Number of terms added so far (always the prefix 0..added()-1).
  std::size_t added() const { return next_; }

  /// The combined field; requires every term to have been added.
  Field take();

 private:
  std::vector<CombinationTerm> terms_;
  std::vector<const Field*> waiting_;  ///< handed over, not yet added
  std::size_t next_ = 0;              ///< the lowest term not yet added
  Field sum_;
};

/// Prolongates every component field onto the finest grid and accumulates
/// with the matching coefficients in term order (a TermOrderFold fed in
/// order).  `components[k]` must live on `terms[k].grid`.
Field combine(const std::vector<CombinationTerm>& terms, const std::vector<Field>& components,
              const Grid2D& fine);

/// Number of component grids for a level (= paper's worker count 2*level+1).
std::size_t component_count(int level);

}  // namespace mg::grid
