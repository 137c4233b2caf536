// LSMR: iterative least squares on implicit operators (Fong & Saunders,
// SIAM J. Sci. Comput. 2011).  This is the engine behind EKTELO's
// general-purpose least-squares inference (paper Sec. 7.6): it only needs
// mat-vec and transposed mat-vec, so it runs directly on implicit matrices
// with per-iteration cost O(Time(M)).
#ifndef EKTELO_MATRIX_LSMR_H_
#define EKTELO_MATRIX_LSMR_H_

#include <cstddef>

#include "matrix/linop.h"

namespace ektelo {

struct LsmrOptions {
  // Defaults are loose enough for DP inference (answers carry Laplace
  // noise orders of magnitude above 1e-8) while tight enough that exact
  // systems round-trip to ~1e-6 accuracy in tests.
  double atol = 1e-8;
  double btol = 1e-8;
  double conlim = 1e8;
  /// 0 means "choose automatically" (a small multiple of min(m, n)).
  std::size_t max_iters = 0;
  double damp = 0.0;
};

struct LsmrResult {
  Vec x;
  std::size_t iterations = 0;
  /// ||A x - b|| at the final iterate.
  double residual_norm = 0.0;
  /// Stopping reason, mirroring the LSMR paper's istop codes: 0 means
  /// x = 0 is the exact solution, 1-6 a convergence or conditioning test,
  /// 7 the iteration limit.
  int istop = 0;
};

/// Solve argmin_x ||A x - b||_2 (optionally damped).
LsmrResult Lsmr(const LinOp& a, const Vec& b, const LsmrOptions& opts = {});

}  // namespace ektelo

#endif  // EKTELO_MATRIX_LSMR_H_
