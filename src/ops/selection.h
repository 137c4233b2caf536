// Query-selection operators (paper Sec. 5.3): each returns a measurement
// strategy as an implicit LinOp.  All of these are Public — they depend
// only on public information (domain sizes, the workload); the
// data-dependent selection operators (Worst-approx, PrivBayes select) live
// with the kernel / in privbayes.h.
#ifndef EKTELO_OPS_SELECTION_H_
#define EKTELO_OPS_SELECTION_H_

#include <cstddef>
#include <vector>

#include "matrix/linop.h"
#include "ops/hierarchy.h"
#include "workload/workloads.h"

namespace ektelo {

/// SI: all unit counts.
LinOpPtr IdentitySelect(std::size_t n);
/// ST: the single total query.
LinOpPtr TotalSelect(std::size_t n);
/// SH2: complete binary hierarchy (Hay et al.).
LinOpPtr H2Select(std::size_t n);
/// SHB: hierarchy with HB's optimized branching factor (Qardaji et al.).
LinOpPtr HbSelect(std::size_t n);
/// SP: Haar wavelet (Privelet, Xiao et al.); n must be a power of two.
LinOpPtr PriveletSelect(std::size_t n);

/// SG: Greedy-H (DAWA stage 2, Li et al.): a binary hierarchy whose levels
/// are re-weighted by how heavily the workload uses them (usage^(1/3),
/// renormalized to keep the sensitivity of plain H2).  Nodes are counted
/// via the canonical decomposition of each workload range.
LinOpPtr GreedyHSelect(const std::vector<RangeQuery>& workload,
                       std::size_t n);

/// Decompose [q.lo, q.hi] into canonical hierarchy nodes; returns
/// (level, index) pairs.  Exposed for tests.
std::vector<std::pair<std::size_t, std::size_t>> CanonicalCover(
    const Hierarchy& h, const RangeQuery& q);

/// SQ: 2D quadtree over an nx x ny grid (Cormode et al.): all node
/// rectangles from the root down to unit cells.
LinOpPtr QuadtreeSelect(std::size_t nx, std::size_t ny);

/// First cell of block `a` when `n` cells are cut into `g` near-equal
/// consecutive blocks: block a is [GridBlockStart(a), GridBlockStart(a+1)).
/// The one definition of grid boundaries: the rectangles GridCellsSelect
/// measures and the blocks GridPartition2D splits by are the same cells,
/// so AdaptiveGrid's level-2 refinements nest inside its level-1 counts.
inline std::size_t GridBlockStart(std::size_t a, std::size_t n,
                                  std::size_t g) {
  return a * n / g;
}

/// Rectangle-indicator queries of a gx x gy uniform grid over nx x ny
/// (the measurement set of UniformGrid).
LinOpPtr GridCellsSelect(std::size_t nx, std::size_t ny, std::size_t gx,
                         std::size_t gy);

/// UGrid's data-size-adaptive grid side: m = sqrt(N eps / c), clamped to
/// [1, n_side] (Qardaji et al. use c ~= 10).
std::size_t UniformGridSide(double n_records, double eps, std::size_t n_side,
                            double c = 10.0);

/// SS: Stripe(attr) selection for HB-Striped_kron (Sec. 9.2): the
/// Kronecker product with an HB hierarchy on `stripe_dim` and Identity on
/// every other dimension.
LinOpPtr StripeKronSelect(const std::vector<std::size_t>& dims,
                          std::size_t stripe_dim);

}  // namespace ektelo

#endif  // EKTELO_OPS_SELECTION_H_
