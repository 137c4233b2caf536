#include "linalg/dense.h"

#include <algorithm>
#include <cmath>

namespace ektelo {

DenseMatrix DenseMatrix::Identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Vec DenseMatrix::Matvec(const Vec& x) const {
  EK_CHECK_EQ(x.size(), cols_);
  Vec y(rows_);
  Matvec(x.data(), y.data());
  return y;
}

void DenseMatrix::Matvec(const double* x, double* y) const {
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    double s = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

Vec DenseMatrix::RmatVec(const Vec& x) const {
  EK_CHECK_EQ(x.size(), rows_);
  Vec y(cols_);
  RmatVec(x.data(), y.data());
  return y;
}

void DenseMatrix::RmatVec(const double* x, double* y) const {
  std::fill(y, y + cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < cols_; ++j) y[j] += xi * row[j];
  }
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t.At(j, i) = At(i, j);
  return t;
}

DenseMatrix DenseMatrix::Matmul(const DenseMatrix& other) const {
  EK_CHECK_EQ(cols_, other.rows());
  DenseMatrix r(rows_, other.cols());
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = At(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.RowPtr(k);
      double* rrow = r.RowPtr(i);
      for (std::size_t j = 0; j < other.cols(); ++j) rrow[j] += aik * brow[j];
    }
  }
  return r;
}

DenseMatrix DenseMatrix::Gram() const {
  DenseMatrix g(cols_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    for (std::size_t a = 0; a < cols_; ++a) {
      const double ra = row[a];
      if (ra == 0.0) continue;
      double* grow = g.RowPtr(a);
      for (std::size_t b = 0; b < cols_; ++b) grow[b] += ra * row[b];
    }
  }
  return g;
}

DenseMatrix DenseMatrix::Abs() const {
  DenseMatrix r = *this;
  for (double& v : r.data()) v = std::abs(v);
  return r;
}

double DenseMatrix::MaxColNormL1() const {
  Vec col(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) col[j] += std::abs(At(i, j));
  return col.empty() ? 0.0 : *std::max_element(col.begin(), col.end());
}

bool DenseMatrix::ApproxEquals(const DenseMatrix& other, double tol) const {
  if (rows_ != other.rows() || cols_ != other.cols()) return false;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (std::abs(data_[i] - other.data()[i]) > tol) return false;
  return true;
}

bool CholeskyFactor(DenseMatrix* a) {
  EK_CHECK_EQ(a->rows(), a->cols());
  const std::size_t n = a->rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = a->At(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a->At(j, k) * a->At(j, k);
    if (d <= 0.0) return false;
    d = std::sqrt(d);
    a->At(j, j) = d;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a->At(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a->At(i, k) * a->At(j, k);
      a->At(i, j) = s / d;
    }
  }
  // Zero the strict upper triangle so the factor is unambiguous.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) a->At(i, j) = 0.0;
  return true;
}

Vec CholeskySolve(const DenseMatrix& chol, const Vec& b) {
  const std::size_t n = chol.rows();
  EK_CHECK_EQ(b.size(), n);
  Vec y(n);
  // Forward: L y = b
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= chol.At(i, k) * y[k];
    y[i] = s / chol.At(i, i);
  }
  // Backward: L^T x = y
  Vec x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= chol.At(k, ii) * x[k];
    x[ii] = s / chol.At(ii, ii);
  }
  return x;
}

Vec DirectLeastSquares(const DenseMatrix& a, const Vec& b, double ridge) {
  EK_CHECK_EQ(b.size(), a.rows());
  return SolveNormalEquations(a.Gram(), a.RmatVec(b), ridge);
}

Vec SolveNormalEquations(DenseMatrix gram, const Vec& atb, double ridge) {
  EK_CHECK_EQ(gram.rows(), gram.cols());
  EK_CHECK_EQ(atb.size(), gram.rows());
  // Scale-aware jitter keeps the factorization stable for rank-deficient
  // measurement sets without visibly biasing well-posed solves.
  double diag_max = 0.0;
  for (std::size_t i = 0; i < gram.rows(); ++i)
    diag_max = std::max(diag_max, gram.At(i, i));
  const double jitter = ridge * std::max(diag_max, 1.0);
  DenseMatrix chol = gram;
  for (std::size_t i = 0; i < chol.rows(); ++i) chol.At(i, i) += jitter;
  if (!CholeskyFactor(&chol)) {
    // Retry with a stronger ridge; the system is badly conditioned.
    chol = std::move(gram);
    for (std::size_t i = 0; i < chol.rows(); ++i)
      chol.At(i, i) += 1e-6 * std::max(diag_max, 1.0);
    EK_CHECK(CholeskyFactor(&chol));
  }
  return CholeskySolve(chol, atb);
}

DenseMatrix PseudoInverse(const DenseMatrix& a, double ridge) {
  // A+ = (A^T A + rI)^{-1} A^T, adequate for the small, full-column-rank
  // matrices used in per-dimension strategy scoring.
  DenseMatrix gram = a.Gram();
  double diag_max = 0.0;
  for (std::size_t i = 0; i < gram.rows(); ++i)
    diag_max = std::max(diag_max, gram.At(i, i));
  for (std::size_t i = 0; i < gram.rows(); ++i)
    gram.At(i, i) += ridge * std::max(diag_max, 1.0);
  DenseMatrix chol = gram;
  EK_CHECK(CholeskyFactor(&chol));
  DenseMatrix at = a.Transpose();
  DenseMatrix result(a.cols(), a.rows());
  Vec col(a.cols());
  for (std::size_t j = 0; j < a.rows(); ++j) {
    for (std::size_t i = 0; i < a.cols(); ++i) col[i] = at.At(i, j);
    Vec x = CholeskySolve(chol, col);
    for (std::size_t i = 0; i < a.cols(); ++i) result.At(i, j) = x[i];
  }
  return result;
}

}  // namespace ektelo
