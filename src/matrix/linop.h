// LinOp: EKTELO's implicit matrix abstraction (paper Sec. 7).
//
// Workload matrices, measurement matrices and partition matrices are all
// represented as LinOps.  A LinOp is a *virtual* matrix: it supports the
// primitive methods of Table 1 — matrix-vector product, transposed
// matrix-vector product, transpose and elementwise abs — from which every
// plan-level computation (query evaluation, L1 sensitivity, inference,
// Gram matrices, row indexing, materialization) is derived.
//
// Table 1's fifth primitive, the elementwise square, is absent on purpose:
// it exists only to derive L2 sensitivity, and no mechanism here uses L2 —
// the kernel implements the Laplace mechanism alone.  It comes back
// together with a Gaussian mechanism, not before.
//
// The evaluation core is *blocked*: ApplyBlockRaw/ApplyTBlockRaw evaluate a
// panel of k right-hand sides per traversal of the operator, so
// materialization, Gram assembly and multi-RHS solves amortize the cost of
// touching the operator structure over k columns.  Subclasses that only
// implement the single-vector ApplyRaw/ApplyTRaw still work — the default
// block methods loop over columns — but the dense/sparse/implicit leaves
// and all combinators override them with genuinely blocked kernels.
//
// Gram() contract: Gram() returns M^T M as a LinOp with rows == cols ==
// this->cols().  The result is symmetric positive semi-definite and exact
// (no approximation): Gram()->MaterializeDense() equals the densified
// M^T M for every operator.  The default is the lazily-composed operator
// x -> M^T (M x), which stays matrix-free (per-apply cost 2 * Time(M));
// structured subclasses override it with closed forms (e.g. Kron(A, B)
// yields Kron(Gram(A), Gram(B)); a vertical stack yields the sum of its
// children's Grams).  The solver on the normal equations (NNLS) consumes
// Gram() directly and never materializes M.
//
// Representations are lossless: MaterializeSparse()/MaterializeDense()
// produce the exact matrix, and the test suite checks every primitive
// against the materialized form.
#ifndef EKTELO_MATRIX_LINOP_H_
#define EKTELO_MATRIX_LINOP_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "linalg/block.h"
#include "linalg/csr.h"
#include "linalg/dense.h"
#include "linalg/vec.h"

namespace ektelo {

class LinOp;
using LinOpPtr = std::shared_ptr<const LinOp>;

/// Bitwise equality of double payloads (memcmp semantics: NaNs compare by
/// payload, -0.0 != 0.0) — what the rewrite rules use to recognize an
/// exact unit weight or an unchanged scalar.
inline bool BitwiseEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}
template <typename AllocA, typename AllocB>
inline bool BitwiseEq(const std::vector<double, AllocA>& a,
                      const std::vector<double, AllocB>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class LinOp : public std::enable_shared_from_this<LinOp> {
 public:
  LinOp(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}
  virtual ~LinOp() = default;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// y = A x.  |x| = cols, |y| = rows.  Must not alias.
  virtual void ApplyRaw(const double* x, double* y) const = 0;
  /// y = A^T x.  |x| = rows, |y| = cols.  Must not alias.
  virtual void ApplyTRaw(const double* x, double* y) const = 0;

  /// Y = A X over k column-major right-hand sides: x is (cols x k), y is
  /// (rows x k), both column-major.  Must not alias.  The default loops
  /// over columns calling ApplyRaw; blocked subclasses traverse their
  /// structure once for all k columns.
  virtual void ApplyBlockRaw(const double* x, double* y, std::size_t k) const;
  /// Y = A^T X over k column-major RHS: x is (rows x k), y is (cols x k).
  virtual void ApplyTBlockRaw(const double* x, double* y,
                              std::size_t k) const;

  Vec Apply(const Vec& x) const;
  Vec ApplyT(const Vec& x) const;
  Block ApplyBlock(const Block& x) const;
  Block ApplyTBlock(const Block& x) const;

  /// Elementwise |a_ij| as a LinOp.  Binary/non-negative matrices return
  /// themselves (a no-op, per Sec. 7.5); the default materializes sparse.
  virtual LinOpPtr Abs() const;

  /// M^T M as a first-class operator (see the Gram() contract above).
  virtual LinOpPtr Gram() const;

  /// Exact sparse materialization.  The default streams identity panels of
  /// bounded width through ApplyBlockRaw (one blocked traversal per
  /// ~kMaterializePanel columns, dropping exact zeros); structured
  /// subclasses override with direct constructions.
  virtual CsrMatrix MaterializeSparse() const;
  /// Exact dense materialization; the default densifies MaterializeSparse.
  virtual DenseMatrix MaterializeDense() const;

  /// Max L1 column norm: the Laplace sensitivity of this query set
  /// (computed as max(Abs()^T * 1), Table 1).  Cached per instance: plans
  /// query sensitivity repeatedly (budget splitting, noise calibration)
  /// and the underlying operator is immutable.  Always computed on this
  /// operator itself — never looked up by structure in a shared cache —
  /// so the noise a measurement draws is calibrated to exactly the
  /// matrix it charges for.
  double SensitivityL1() const;

  /// A human-readable structural name, e.g. "Kron(Prefix(256),Identity(7))".
  virtual std::string DebugName() const = 0;

  /// True if all entries are known to lie in {0, 1}, making Abs() a
  /// no-op.
  bool is_nonneg_binary() const { return nonneg_binary_; }

  /// Panel width used by the blocked materialization fallback.
  static constexpr std::size_t kMaterializePanel = 64;

 protected:
  void set_nonneg_binary(bool b) const { nonneg_binary_ = b; }

  /// A shared_ptr view of this operator for composed results (lazy
  /// Grams).  Uses the owning control block when the operator is
  /// shared-owned (the factory functions); otherwise a non-owning alias,
  /// valid only while the operator itself lives — the same lifetime
  /// contract as the const-reference solver APIs that trigger it.
  LinOpPtr SelfPtr() const;

  /// Uncached sensitivity computation; override this, not the public
  /// cached accessor.
  virtual double ComputeSensitivityL1() const;

 private:
  std::size_t rows_, cols_;
  mutable bool nonneg_binary_ = false;
  // The lazy sensitivity cache is the only mutable state a const LinOp
  // carries, so this mutex is what makes shared operators safe to use
  // from concurrent plan branches (note the resulting operator
  // non-copyability; operators live behind LinOpPtr anyway).
  mutable std::mutex sens_mu_;
  mutable std::optional<double> sens_l1_;
};

/// Wrapper over a materialized dense matrix.
class DenseOp final : public LinOp {
 public:
  explicit DenseOp(DenseMatrix m);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Abs() const override;
  LinOpPtr Gram() const override;
  CsrMatrix MaterializeSparse() const override;
  DenseMatrix MaterializeDense() const override;
  std::string DebugName() const override;
  const DenseMatrix& dense() const { return m_; }

 protected:
  double ComputeSensitivityL1() const override;

 private:
  DenseMatrix m_;
};

/// Wrapper over a materialized CSR sparse matrix.
class SparseOp final : public LinOp {
 public:
  explicit SparseOp(CsrMatrix m);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Abs() const override;
  LinOpPtr Gram() const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  const CsrMatrix& csr() const { return m_; }

 protected:
  double ComputeSensitivityL1() const override;

 private:
  CsrMatrix m_;
};

/// The lazily-composed Gram operator x -> M^T (M x): the default result of
/// LinOp::Gram().  Symmetric, so Apply == ApplyT; block applies stay
/// blocked end to end through the child.
class GramOp final : public LinOp {
 public:
  explicit GramOp(LinOpPtr child);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Gram() const override;  // Gram of a Gram composes lazily too
  std::string DebugName() const override;
  const LinOpPtr& child() const { return child_; }

 private:
  LinOpPtr child_;
};

LinOpPtr MakeDense(DenseMatrix m);
LinOpPtr MakeSparse(CsrMatrix m);

/// The i-th row of M as a dense vector: M^T e_i (Table 1, row indexing).
Vec RowOf(const LinOp& m, std::size_t i);

/// Gram matrix M^T M in sparse form, via the structured Gram() operator
/// (closed forms where available, blocked identity-panel materialization
/// otherwise).
CsrMatrix GramSparse(const LinOp& m);

}  // namespace ektelo

#endif  // EKTELO_MATRIX_LINOP_H_
