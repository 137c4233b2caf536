// Row-major dense matrix with the operations EKTELO's direct (non-implicit)
// code paths need: mat-vec, transposed mat-vec, mat-mat, Cholesky solve for
// direct least squares, and pseudo-inverse via normal equations.
#ifndef EKTELO_LINALG_DENSE_H_
#define EKTELO_LINALG_DENSE_H_

#include <cstddef>
#include <vector>

#include "linalg/vec.h"
#include "util/aligned.h"

namespace ektelo {

class DenseMatrix {
 public:
  DenseMatrix() : rows_(0), cols_(0) {}
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static DenseMatrix Identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& At(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  double At(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  const double* RowPtr(std::size_t i) const { return &data_[i * cols_]; }
  double* RowPtr(std::size_t i) { return &data_[i * cols_]; }

  // Backing storage is 64-byte aligned and cacheline-padded
  // (util/aligned.h) so the vectorized block kernels see aligned rows
  // whenever cols is a multiple of the lane group.
  const AlignedVec& data() const { return data_; }
  AlignedVec& data() { return data_; }

  /// y = A x
  Vec Matvec(const Vec& x) const;
  void Matvec(const double* x, double* y) const;

  /// y = A^T x
  Vec RmatVec(const Vec& x) const;
  void RmatVec(const double* x, double* y) const;

  DenseMatrix Transpose() const;
  DenseMatrix Matmul(const DenseMatrix& other) const;

  /// A^T A (symmetric positive semi-definite).
  DenseMatrix Gram() const;

  /// Elementwise |a_ij|.
  DenseMatrix Abs() const;

  /// Max L1 column norm (Laplace-mechanism sensitivity).
  double MaxColNormL1() const;

  bool ApproxEquals(const DenseMatrix& other, double tol = 1e-9) const;

 private:
  std::size_t rows_, cols_;
  AlignedVec data_;
};

/// In-place Cholesky factorization of an SPD matrix (lower triangle).
/// Returns false if the matrix is not positive definite (within jitter).
bool CholeskyFactor(DenseMatrix* a);

/// Solve L L^T x = b given the factor from CholeskyFactor.
Vec CholeskySolve(const DenseMatrix& chol, const Vec& b);

/// Direct ordinary least squares: argmin ||Ax - b||_2 via normal equations
/// with a small ridge for rank-deficient systems.  O(n^3); used only as the
/// "Dense+Direct" baseline of Fig. 5 and for small subproblems.
Vec DirectLeastSquares(const DenseMatrix& a, const Vec& b,
                       double ridge = 1e-10);

/// Solve (gram + jitter I) x = atb by Cholesky, with scale-aware jitter and
/// a stronger-ridge retry for badly conditioned systems.  `gram` is
/// consumed (factored in place).  This is the normal-equations back end
/// shared by DirectLeastSquares and the Gram-driven inference path, which
/// assembles gram = M^T M from the operator's structured Gram() without
/// ever materializing M.
Vec SolveNormalEquations(DenseMatrix gram, const Vec& atb,
                         double ridge = 1e-10);

/// Moore-Penrose pseudo-inverse via ridge-regularized normal equations.
/// Suitable for the small per-dimension matrices in strategy optimization.
DenseMatrix PseudoInverse(const DenseMatrix& a, double ridge = 1e-10);

}  // namespace ektelo

#endif  // EKTELO_LINALG_DENSE_H_
