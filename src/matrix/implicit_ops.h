// Core implicit matrices (paper Sec. 7.4, Table 2): Identity, Ones, Total,
// Prefix, Suffix, Wavelet.  Each stores O(1) state and supports mat-vec in
// O(n) (O(n log n) for Wavelet), versus O(n^2) for dense/sparse Prefix.
// Block applies run all k right-hand sides through one structural sweep;
// Gram() has closed forms where they exist (Identity is idempotent,
// Ones(m,n)^T Ones(m,n) = m * Ones(n,n)).
#ifndef EKTELO_MATRIX_IMPLICIT_OPS_H_
#define EKTELO_MATRIX_IMPLICIT_OPS_H_

#include "matrix/linop.h"

namespace ektelo {

/// n x n identity; Iv = v.
class IdentityOp final : public LinOp {
 public:
  explicit IdentityOp(std::size_t n);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Gram() const override;  // I^T I = I
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;

 protected:
  double ComputeSensitivityL1() const override { return 1.0; }
};

/// m x n all-ones matrix; (Ones x)_i = sum(x).
class OnesOp final : public LinOp {
 public:
  OnesOp(std::size_t m, std::size_t n);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Gram() const override;  // m * Ones(n, n)
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;

 protected:
  double ComputeSensitivityL1() const override;
};

/// n x n lower-triangular all-ones: y_k = x_1 + ... + x_k (empirical CDF).
class PrefixOp final : public LinOp {
 public:
  explicit PrefixOp(std::size_t n);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;

 protected:
  double ComputeSensitivityL1() const override;
};

/// n x n upper-triangular all-ones: y_k = x_k + ... + x_n.
class SuffixOp final : public LinOp {
 public:
  explicit SuffixOp(std::size_t n);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;

 protected:
  double ComputeSensitivityL1() const override;
};

/// n x n Haar wavelet analysis matrix (n must be a power of two).
/// Sensitivity is computed directly (1 + log2 n) without abs, per
/// Sec. 7.4; Abs() falls back to sparse materialization.
class WaveletOp final : public LinOp {
 public:
  explicit WaveletOp(std::size_t n);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;

 protected:
  double ComputeSensitivityL1() const override;
};

LinOpPtr MakeIdentityOp(std::size_t n);
LinOpPtr MakeOnesOp(std::size_t m, std::size_t n);
/// Total is the special case Ones(1, n) (paper Sec. 7.4).
LinOpPtr MakeTotalOp(std::size_t n);
LinOpPtr MakePrefixOp(std::size_t n);
LinOpPtr MakeSuffixOp(std::size_t n);
LinOpPtr MakeWaveletOp(std::size_t n);

}  // namespace ektelo

#endif  // EKTELO_MATRIX_IMPLICIT_OPS_H_
