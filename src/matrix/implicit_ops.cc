#include "matrix/implicit_ops.h"

#include <algorithm>
#include <cmath>

#include "linalg/haar.h"
#include "matrix/combinators.h"
#include "util/check.h"

namespace ektelo {

// --------------------------------------------------------------- Identity

IdentityOp::IdentityOp(std::size_t n) : LinOp(n, n) {
  set_nonneg_binary(true);
}

void IdentityOp::ApplyRaw(const double* x, double* y) const {
  std::copy(x, x + cols(), y);
}

void IdentityOp::ApplyTRaw(const double* x, double* y) const {
  std::copy(x, x + rows(), y);
}

void IdentityOp::ApplyBlockRaw(const double* x, double* y,
                               std::size_t k) const {
  std::copy(x, x + cols() * k, y);
}

void IdentityOp::ApplyTBlockRaw(const double* x, double* y,
                                std::size_t k) const {
  std::copy(x, x + rows() * k, y);
}

LinOpPtr IdentityOp::Gram() const { return SelfPtr(); }

CsrMatrix IdentityOp::MaterializeSparse() const {
  return CsrMatrix::Identity(rows());
}

std::string IdentityOp::DebugName() const {
  return "Identity(" + std::to_string(rows()) + ")";
}

// ------------------------------------------------------------------- Ones

OnesOp::OnesOp(std::size_t m, std::size_t n) : LinOp(m, n) {
  set_nonneg_binary(true);
}

void OnesOp::ApplyRaw(const double* x, double* y) const {
  double s = 0.0;
  for (std::size_t j = 0; j < cols(); ++j) s += x[j];
  std::fill(y, y + rows(), s);
}

void OnesOp::ApplyTRaw(const double* x, double* y) const {
  double s = 0.0;
  for (std::size_t i = 0; i < rows(); ++i) s += x[i];
  std::fill(y, y + cols(), s);
}

void OnesOp::ApplyBlockRaw(const double* x, double* y, std::size_t k) const {
  for (std::size_t c = 0; c < k; ++c) {
    const double* xc = x + c * cols();
    double s = 0.0;
    for (std::size_t j = 0; j < cols(); ++j) s += xc[j];
    std::fill(y + c * rows(), y + (c + 1) * rows(), s);
  }
}

void OnesOp::ApplyTBlockRaw(const double* x, double* y, std::size_t k) const {
  for (std::size_t c = 0; c < k; ++c) {
    const double* xc = x + c * rows();
    double s = 0.0;
    for (std::size_t i = 0; i < rows(); ++i) s += xc[i];
    std::fill(y + c * cols(), y + (c + 1) * cols(), s);
  }
}

LinOpPtr OnesOp::Gram() const {
  // Ones(m,n)^T Ones(m,n) = m * Ones(n,n).
  return MakeScaled(MakeOnesOp(cols(), cols()),
                    static_cast<double>(rows()));
}

CsrMatrix OnesOp::MaterializeSparse() const {
  std::vector<Triplet> t;
  t.reserve(rows() * cols());
  for (std::size_t i = 0; i < rows(); ++i)
    for (std::size_t j = 0; j < cols(); ++j) t.push_back({i, j, 1.0});
  return CsrMatrix::FromTriplets(rows(), cols(), std::move(t));
}

double OnesOp::ComputeSensitivityL1() const {
  return static_cast<double>(rows());
}

std::string OnesOp::DebugName() const {
  return "Ones(" + std::to_string(rows()) + "x" + std::to_string(cols()) + ")";
}

// ----------------------------------------------------------------- Prefix

PrefixOp::PrefixOp(std::size_t n) : LinOp(n, n) { set_nonneg_binary(true); }

void PrefixOp::ApplyRaw(const double* x, double* y) const {
  double run = 0.0;
  for (std::size_t k = 0; k < cols(); ++k) {
    run += x[k];
    y[k] = run;
  }
}

void PrefixOp::ApplyTRaw(const double* x, double* y) const {
  // (P^T x)_j = sum_{k >= j} x_k: a suffix sum.
  double run = 0.0;
  for (std::size_t j = rows(); j-- > 0;) {
    run += x[j];
    y[j] = run;
  }
}

void PrefixOp::ApplyBlockRaw(const double* x, double* y,
                             std::size_t k) const {
  for (std::size_t c = 0; c < k; ++c) {
    const double* xc = x + c * cols();
    double* yc = y + c * cols();
    double run = 0.0;
    for (std::size_t i = 0; i < cols(); ++i) {
      run += xc[i];
      yc[i] = run;
    }
  }
}

void PrefixOp::ApplyTBlockRaw(const double* x, double* y,
                              std::size_t k) const {
  for (std::size_t c = 0; c < k; ++c) {
    const double* xc = x + c * rows();
    double* yc = y + c * rows();
    double run = 0.0;
    for (std::size_t j = rows(); j-- > 0;) {
      run += xc[j];
      yc[j] = run;
    }
  }
}

CsrMatrix PrefixOp::MaterializeSparse() const {
  std::vector<Triplet> t;
  t.reserve(rows() * (rows() + 1) / 2);
  for (std::size_t i = 0; i < rows(); ++i)
    for (std::size_t j = 0; j <= i; ++j) t.push_back({i, j, 1.0});
  return CsrMatrix::FromTriplets(rows(), cols(), std::move(t));
}

double PrefixOp::ComputeSensitivityL1() const {
  // Column j appears in rows j..n-1.
  return static_cast<double>(rows());
}

std::string PrefixOp::DebugName() const {
  return "Prefix(" + std::to_string(rows()) + ")";
}

// ----------------------------------------------------------------- Suffix

SuffixOp::SuffixOp(std::size_t n) : LinOp(n, n) { set_nonneg_binary(true); }

void SuffixOp::ApplyRaw(const double* x, double* y) const {
  double run = 0.0;
  for (std::size_t k = cols(); k-- > 0;) {
    run += x[k];
    y[k] = run;
  }
}

void SuffixOp::ApplyTRaw(const double* x, double* y) const {
  double run = 0.0;
  for (std::size_t j = 0; j < rows(); ++j) {
    run += x[j];
    y[j] = run;
  }
}

void SuffixOp::ApplyBlockRaw(const double* x, double* y,
                             std::size_t k) const {
  for (std::size_t c = 0; c < k; ++c) {
    const double* xc = x + c * cols();
    double* yc = y + c * cols();
    double run = 0.0;
    for (std::size_t i = cols(); i-- > 0;) {
      run += xc[i];
      yc[i] = run;
    }
  }
}

void SuffixOp::ApplyTBlockRaw(const double* x, double* y,
                              std::size_t k) const {
  for (std::size_t c = 0; c < k; ++c) {
    const double* xc = x + c * rows();
    double* yc = y + c * rows();
    double run = 0.0;
    for (std::size_t j = 0; j < rows(); ++j) {
      run += xc[j];
      yc[j] = run;
    }
  }
}

CsrMatrix SuffixOp::MaterializeSparse() const {
  std::vector<Triplet> t;
  t.reserve(rows() * (rows() + 1) / 2);
  for (std::size_t i = 0; i < rows(); ++i)
    for (std::size_t j = i; j < cols(); ++j) t.push_back({i, j, 1.0});
  return CsrMatrix::FromTriplets(rows(), cols(), std::move(t));
}

double SuffixOp::ComputeSensitivityL1() const {
  return static_cast<double>(rows());
}

std::string SuffixOp::DebugName() const {
  return "Suffix(" + std::to_string(rows()) + ")";
}

// ---------------------------------------------------------------- Wavelet

WaveletOp::WaveletOp(std::size_t n) : LinOp(n, n) {
  EK_CHECK(IsPowerOfTwo(n));
}

void WaveletOp::ApplyRaw(const double* x, double* y) const {
  HaarAnalysis(x, y, cols());
}

void WaveletOp::ApplyTRaw(const double* x, double* y) const {
  HaarSynthesis(x, y, cols());
}

void WaveletOp::ApplyBlockRaw(const double* x, double* y,
                              std::size_t k) const {
  HaarAnalysisBlock(x, y, cols(), k);
}

void WaveletOp::ApplyTBlockRaw(const double* x, double* y,
                               std::size_t k) const {
  HaarSynthesisBlock(x, y, cols(), k);
}

CsrMatrix WaveletOp::MaterializeSparse() const {
  return HaarMatrixSparse(rows());
}

double WaveletOp::ComputeSensitivityL1() const {
  // Each column hits the total row plus one +/-1 per level.
  double k = std::log2(static_cast<double>(rows()));
  return 1.0 + k;
}

std::string WaveletOp::DebugName() const {
  return "Wavelet(" + std::to_string(rows()) + ")";
}

LinOpPtr MakeIdentityOp(std::size_t n) {
  return std::make_shared<IdentityOp>(n);
}
LinOpPtr MakeOnesOp(std::size_t m, std::size_t n) {
  return std::make_shared<OnesOp>(m, n);
}
LinOpPtr MakeTotalOp(std::size_t n) { return std::make_shared<OnesOp>(1, n); }
LinOpPtr MakePrefixOp(std::size_t n) { return std::make_shared<PrefixOp>(n); }
LinOpPtr MakeSuffixOp(std::size_t n) { return std::make_shared<SuffixOp>(n); }
LinOpPtr MakeWaveletOp(std::size_t n) {
  return std::make_shared<WaveletOp>(n);
}

}  // namespace ektelo
