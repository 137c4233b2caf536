// Inference operators (paper Sec. 5.5, 7.6): derive a consistent estimate
// xhat of the data vector from all noisy measurements taken by a plan.
// All of these are Public operators — they never touch private data.
//
//  * LeastSquaresInference       — LS on the precision-weighted stack
//                                  (the paper's workhorse), dispatched
//                                  by structure: a laminar family of
//                                  weighted counting queries (H2, HB,
//                                  Greedy-H, grids, partitions, Kron with
//                                  identity) takes the exact tree solver
//                                  (LaminarLeastSquares), a single
//                                  row-scaled WaveletOp the exact Haar
//                                  solve, and anything else LSMR.
//  * NnlsInference               — LS with x >= 0 (Definition 5.2).
//  * MultWeightsInference        — the multiplicative-weights update used
//                                  by MWEM (maximum-entropy flavored).
//  * DirectLeastSquaresInference — dense normal equations (the
//                                  "Dense+Direct" baseline of Fig. 5).
#ifndef EKTELO_OPS_INFERENCE_H_
#define EKTELO_OPS_INFERENCE_H_

#include <cstddef>
#include <optional>

#include "matrix/lsmr.h"
#include "matrix/nnls.h"
#include "ops/measurement.h"

namespace ektelo {

/// Ordinary least squares over all measurements (Definition 5.1),
/// precision-weighted so unequal noise scales are handled correctly.
/// Returns the minimum-norm solution.  Structure is recognized on the
/// measurements as recorded (never materialized, never rewritten), so the
/// rewrite toggle cannot change the path or its bits:
///  * tree: every row is a scaled 0/1 indicator (RangeSet, RectangleSet,
///    Ones, Identity, equal-valued Sparse rows, Kron and partition
///    products of those, under Scale/RowWeight/VStack) and the supports
///    are laminar; O(nnz + rows) time and memory.
///  * haar: one measurement of a Scale/RowWeight-wrapped WaveletOp with
///    nonzero row scales; one inverse Haar transform, O(n).
///  * lsmr: everything else, on the rewritten stack with `opts` (which
///    the exact paths ignore).
Vec LeastSquaresInference(const MeasurementSet& mset,
                          const LsmrOptions& opts = {});

/// Non-negative least squares (Definition 5.2).  If known_total is given,
/// it is added as an (effectively exact) Total measurement — the
/// known-total side information used by MWEM variants (c)/(d).
Vec NnlsInference(const MeasurementSet& mset,
                  std::optional<double> known_total = std::nullopt,
                  const NnlsOptions& opts = {});

struct MwOptions {
  std::size_t iterations = 60;
  /// Update damping (the 1/(2 total) factor uses this multiplier).
  double learning_rate = 1.0;
};

/// Multiplicative-weights inference: maintains a non-negative xhat with
/// sum == total and repeatedly reweights by exp of the query residuals.
/// `total` is the (public or separately estimated) record count.
Vec MultWeightsInference(const MeasurementSet& mset, double total,
                         const MwOptions& opts = {});

/// One multiplicative-weights step from a given starting estimate (MWEM's
/// incremental use).
Vec MultWeightsStep(const MeasurementSet& mset, Vec xhat,
                    const MwOptions& opts = {});

/// Dense direct LS baseline (normal equations + Cholesky), O(n^3).
Vec DirectLeastSquaresInference(const MeasurementSet& mset);

/// HR (Fig. 1): thresholding post-processor — zero out estimates whose
/// magnitude is below `threshold` (noise-floor suppression for sparse
/// data; a Public operator, free under post-processing).
Vec ThresholdingInference(Vec xhat, double threshold);

}  // namespace ektelo

#endif  // EKTELO_OPS_INFERENCE_H_
