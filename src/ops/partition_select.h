// Partition-selection operators (paper Sec. 5.4).
//
// Data-adaptive selectors (AHP, DAWA) are Private->Public: they spend
// budget through the kernel (internally a VectorLaplace measurement of the
// histogram followed by public clustering / dynamic programming).  The
// structural selectors (grid, stripe, marginal) are Public.
#ifndef EKTELO_OPS_PARTITION_SELECT_H_
#define EKTELO_OPS_PARTITION_SELECT_H_

#include <cstddef>
#include <vector>

#include "kernel/budget.h"
#include "kernel/handles.h"
#include "kernel/kernel.h"
#include "matrix/partition.h"
#include "util/status.h"

namespace ektelo {

// ------------------------------------------------- public (structural)

/// Cells of an nx x ny grid mapped to a gx x gy block grid.  Block
/// boundaries come from GridBlockStart, so each block is exactly one of
/// GridCellsSelect(nx, ny, gx, gy)'s rectangles (same order).
Partition GridPartition2D(std::size_t nx, std::size_t ny, std::size_t gx,
                          std::size_t gy);

/// Stripe(attr) (Sec. 9.2): one group per combination of the non-stripe
/// attributes; within each group, cells are ordered by the stripe
/// coordinate, so each split child is a 1D histogram along `stripe_dim`.
Partition StripePartition(const std::vector<std::size_t>& dims,
                          std::size_t stripe_dim);

/// Marginal(attrs): groups cells by the values of the kept dimensions
/// (given in ascending dimension order); reducing by this partition yields
/// exactly the marginal vector whose layout matches MarginalWorkload.
Partition MarginalPartition(const std::vector<std::size_t>& dims,
                            const std::vector<std::size_t>& keep_dims);

// ---------------------------------------------- pure clustering kernels

/// AHP's cluster step (Zhang et al., SDM 2014): zero out noisy counts
/// below `threshold`, then greedily group cells with similar magnitude
/// (cells are sorted by noisy value; a new group starts when the value
/// gap to the group's anchor exceeds `gap`).
Partition AhpClusterPartition(const Vec& noisy, double threshold, double gap);

/// DAWA stage 1 (Li et al., PVLDB 2014): least-cost interval partition of
/// a noisy histogram via dynamic programming over aligned dyadic
/// intervals (O(n log n)).  cost(bucket) = deviation + penalty, where the
/// deviation estimate is bias-corrected for the measurement noise: the
/// raw Sum|x~_i - mean| of a truly uniform bucket is ~= len *
/// E|Lap(noise_scale)|, so that amount is subtracted (clamped at 0) —
/// without the correction the DP refuses to merge uniform regions, which
/// is DAWA's entire advantage.
Partition DawaIntervalPartition(const Vec& noisy, double penalty,
                                double noise_scale = 0.0);

/// Heteroscedastic variant: per-cell noise scales (used when cells are
/// themselves groups of different volumes, e.g. after a workload-based
/// reduction: densities x_i / vol_i carry noise (1/eps) / vol_i).
Partition DawaIntervalPartition(const Vec& noisy, double penalty,
                                const Vec& noise_scales);

// -------------------------------------------- Private->Public (kernel)

struct AhpOptions {
  /// Threshold factor: counts below eta * log(n) / eps are zeroed.
  double eta = 0.35;
  /// Cluster gap as a multiple of the noise scale.
  double gap_factor = 2.0;
};

/// PA: AHP partition selection; spends `eps` on a noisy histogram.
StatusOr<Partition> AhpPartitionSelect(ProtectedKernel* kernel, SourceId src,
                                       double eps,
                                       const AhpOptions& opts = {});

/// Typed-handle overload: meters `eps` through `scope` before the kernel.
StatusOr<Partition> AhpPartitionSelect(const ProtectedVector& x, double eps,
                                       BudgetScope& scope,
                                       const AhpOptions& opts = {});

struct DawaOptions {
  /// Bucket penalty as a multiple of 1/eps (the stage-2 noise the
  /// partition trades against).
  double penalty_factor = 1.0;
  /// Public per-cell volumes.  When non-empty, partition selection runs
  /// on densities (noisy count / volume) instead of raw counts, so cells
  /// that are pre-merged groups of unequal size (workload-based
  /// reduction, Sec. 8) still expose their uniform-region structure.
  Vec cell_volumes;
};

/// PD: DAWA stage-1 partition selection; spends `eps`.
StatusOr<Partition> DawaPartitionSelect(ProtectedKernel* kernel, SourceId src,
                                        double eps,
                                        const DawaOptions& opts = {});

/// Typed-handle overload: meters `eps` through `scope` before the kernel.
StatusOr<Partition> DawaPartitionSelect(const ProtectedVector& x, double eps,
                                        BudgetScope& scope,
                                        const DawaOptions& opts = {});

}  // namespace ektelo

#endif  // EKTELO_OPS_PARTITION_SELECT_H_
