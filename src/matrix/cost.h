// Cost policy for LinOp expression trees: the named guards of the
// rewrite pass's sparse-fuse rule (matrix/rules.h).
#ifndef EKTELO_MATRIX_COST_H_
#define EKTELO_MATRIX_COST_H_

#include <cstddef>

namespace ektelo {

// ------------------------------------------------------------- guards

/// Budget for eagerly multiplying two CSR leaves during rewriting: the
/// update count of the row-wise product (CsrMatrix::MatmulUpdateBound)
/// must stay within this, so canonicalization never stalls a solver
/// thread on an enormous sparse matmul.
inline constexpr std::size_t kSparseFuseMaxUpdates = std::size_t{1} << 24;

/// No-denser-than-factors rule: a fused product leaf is kept only when
/// nnz(AB) <= ratio * (nnz(A) + nnz(B)).  At 1.0 the per-apply cost can
/// only improve — e.g. P P^T of a partition collapses to a diagonal.
inline constexpr double kSparseFuseMaxDensityRatio = 1.0;

/// The update-count budget of the sparse-fuse rule.
inline bool SparseFuseWithinBudget(std::size_t update_bound) {
  return update_bound <= kSparseFuseMaxUpdates;
}

/// The no-denser-than-factors guard of the sparse-fuse rule.
inline bool SparseFuseKeepsDensity(std::size_t fused_nnz, std::size_t nnz_a,
                                   std::size_t nnz_b) {
  return double(fused_nnz) <=
         kSparseFuseMaxDensityRatio * double(nnz_a + nnz_b);
}

}  // namespace ektelo

#endif  // EKTELO_MATRIX_COST_H_
