// Non-negative least squares via accelerated projected gradient (FISTA
// with restart).  EKTELO's NNLS inference operator (Definition 5.2) uses
// this solver: it only needs mat-vec and transposed mat-vec, so like LSMR
// it runs on implicit operators in O(k * Time(M)).
//
// The paper uses L-BFGS-B; both are first-order iterative solvers for the
// same convex program with the same per-iteration complexity — this
// substitution is recorded in DESIGN.md.
#ifndef EKTELO_MATRIX_NNLS_H_
#define EKTELO_MATRIX_NNLS_H_

#include <cstddef>

#include "matrix/linop.h"

namespace ektelo {

struct NnlsOptions {
  std::size_t max_iters = 500;
  /// Relative change in x below which we declare convergence.
  double tol = 1e-8;
  /// Power-iteration steps for the Lipschitz-constant estimate.
  std::size_t power_iters = 30;
  /// Optional warm start (projected to >= 0); empty means start at zero.
  /// Iterative plans (MWEM variants c/d) re-solve once per round and
  /// warm-start from the previous round's estimate.
  Vec x0{};
};

struct NnlsResult {
  Vec x;
  /// Loop passes actually executed (each costs one Gram apply), counting
  /// monotone-restart passes exactly once — restarts used to
  /// double-increment the counter, over-reporting iterations and
  /// silently shrinking the max_iters budget on restart-heavy problems.
  std::size_t iterations = 0;
  /// Monotone restarts taken (momentum dropped because the objective
  /// increased).
  std::size_t restarts = 0;
  double residual_norm = 0.0;
};

/// argmin_{x >= 0} ||A x - b||_2.
NnlsResult Nnls(const LinOp& a, const Vec& b, const NnlsOptions& opts = {});

/// Largest squared singular value of A (spectral norm of A^T A), estimated
/// by power iteration; exposed for tests.
double EstimateSpectralNormSq(const LinOp& a, std::size_t iters = 30);

/// Same estimate driven by an already-built Gram operator (A^T A), so
/// callers that hold one (e.g. Nnls) don't construct it twice.
double EstimateSpectralNormSqGram(const LinOp& gram, std::size_t iters = 30);

}  // namespace ektelo

#endif  // EKTELO_MATRIX_NNLS_H_
