// Hierarchical query strategies (H2, HB) and the specialized tree-based
// least-squares inference of Hay et al. (PVLDB 2010), which Fig. 5 compares
// against the general-purpose iterative inference.  The tree solver is
// generalized to any laminar family of weighted counting queries
// (LaminarForest): LeastSquaresInference dispatches hierarchical, grid
// and partition measurement sets to it.
//
// A hierarchy over n cells is a complete b-ary tree of interval-sum
// queries: the root covers [0, n), each node's children split its interval
// into b parts, down to unit intervals.  The strategy matrix is encoded
// implicitly as Product(Sparse, Prefix) — two nonzeros per node — giving
// O(#nodes) storage and O(n + #nodes) mat-vecs.
#ifndef EKTELO_OPS_HIERARCHY_H_
#define EKTELO_OPS_HIERARCHY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "matrix/linop.h"
#include "util/check.h"

namespace ektelo {

/// One node of the hierarchy: the half-open interval [lo, hi).
struct HierNode {
  std::size_t lo;
  std::size_t hi;
};

/// Tree structure: levels[0] is the root; children of levels[l][i] are
/// contiguous in levels[l+1] (child_start[l][i] .. child_start[l][i+1]).
struct Hierarchy {
  std::size_t n = 0;
  std::size_t branch = 2;
  std::vector<std::vector<HierNode>> levels;
  /// children index ranges per level (into the next level).
  std::vector<std::vector<std::size_t>> child_start;

  std::size_t TotalNodes() const;
};

/// Build the complete b-ary hierarchy over n cells (intervals of uneven
/// size when b does not divide evenly; recursion stops at singletons).
Hierarchy BuildHierarchy(std::size_t n, std::size_t branch);

/// The strategy matrix of a hierarchy (all nodes, all levels).
LinOpPtr HierarchyOp(const Hierarchy& h);

/// HB's optimized branching factor: argmin_b (b - 1) * height(b)^3, the
/// variance proxy from Qardaji et al. (PVLDB 2013).
std::size_t HbBranchingFactor(std::size_t n);

/// Rows whose nonzeros all share one value: row r is coef[r] times the 0/1
/// indicator of a cell set, stored as half-open runs [lo, hi) of cells.
/// Runs of one row are disjoint.  Cell and run indices are 32-bit (the
/// laminar solver's working set is a few arrays of them per row and cell,
/// so their width is its memory traffic); callers keep cells below
/// LaminarForest::kMaxCells.
struct IndicatorRows {
  Vec coef;
  /// Runs of row r are runs[row_start[r] .. row_start[r + 1]).
  std::vector<uint32_t> row_start{0};
  std::vector<std::pair<uint32_t, uint32_t>> runs;

  std::size_t rows() const { return coef.size(); }
  void Reserve(std::size_t rows, std::size_t runs) {
    coef.reserve(rows);
    row_start.reserve(rows + 1);
    this->runs.reserve(runs);
  }
  /// Adds [lo, hi) to the open row, merged into its last run when they
  /// touch.
  void AddRun(std::size_t lo, std::size_t hi) {
    if (lo == hi) return;
    EK_CHECK_LT(hi, std::size_t{UINT32_MAX});
    if (runs.size() > row_start.back() && runs.back().second == lo)
      runs.back().second = static_cast<uint32_t>(hi);
    else
      runs.emplace_back(static_cast<uint32_t>(lo), static_cast<uint32_t>(hi));
  }
  /// Closes the open row with value c.
  void EndRow(double c) {
    EK_CHECK_LT(runs.size(), std::size_t{UINT32_MAX});
    coef.push_back(c);
    row_start.push_back(static_cast<uint32_t>(runs.size()));
  }
};

/// Weighted least squares argmin_x ||diag(coef) S x - b||_2 over n cells,
/// where S stacks the indicator rows, when the row supports form a
/// laminar family (any two are nested or disjoint).  Solved by a two-pass
/// tree estimator generalizing Hay et al.: rows with the same support
/// merge by inverse variance; a node whose children do not cover it
/// leaves the residual to its uncovered cells; the result is the
/// minimum-norm solution (uniform within each atom of the family, 0 on
/// cells no row covers).  The forest depends only on the rows, so one
/// build serves any number of right-hand sides.
class LaminarForest {
 public:
  /// Domains at or above this size are not supported (indices are 32-bit).
  static constexpr std::size_t kMaxCells = UINT32_MAX - 1;

  /// O(nnz + rows + n).  Returns nullopt when the supports are not
  /// laminar, or when n or the row count exceeds kMaxCells.
  static std::optional<LaminarForest> Build(IndicatorRows rows,
                                            std::size_t n);
  /// The solution for b (one entry per row), O(rows + n).
  Vec Solve(const Vec& b) const;

  std::size_t nodes() const { return parent_.size(); }

 private:
  Vec coef_;
  std::vector<uint32_t> row_node_;  // each row's node (or none)
  std::vector<uint32_t> owner_;     // smallest node containing each cell
  // Per node, parents before children; one array per field, so no
  // allocation is wider than one word per node.
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> uncovered_;  // cells in none of its children
  Vec prec_;   // sum of coef^2 over the node's rows
  Vec w_own_;  // weight of its own rows in its subtree estimate
  Vec share_;  // its part of a fully covered parent's surplus
};

/// Hay et al.'s two-pass (bottom-up weighted average, top-down consistency)
/// least-squares solver for a hierarchy with uniform noise: the
/// LaminarForest of its nodes.  y is the noisy answer vector in
/// HierarchyOp row order; returns the leaf estimate (length n).
Vec TreeBasedLeastSquares(const Hierarchy& h, const Vec& y);

}  // namespace ektelo

#endif  // EKTELO_OPS_HIERARCHY_H_
