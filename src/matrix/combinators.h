// Combining operations over implicit matrices (paper Sec. 7.4):
// Union (vertical stack), horizontal stack, Product, Kronecker product,
// sum, plus transpose views and row/uniform scaling (used for weighted
// strategies and noise-aware inference).  Composed operators delegate the
// primitive methods to their children and inherit their complexity
// (Table 3); block applies delegate to the children's blocked kernels so
// a panel of k RHS traverses each child once.
//
// Gram() distributes structurally where a closed form exists:
//   Gram(A ⊗ B)        = Gram(A) ⊗ Gram(B)
//   Gram([A; B; ...])  = Gram(A) + Gram(B) + ...   (vertical stack)
//   Gram(c A)          = c^2 Gram(A)
//   Gram(A B)          = B^T Gram(A) B
#ifndef EKTELO_MATRIX_COMBINATORS_H_
#define EKTELO_MATRIX_COMBINATORS_H_

#include <vector>

#include "matrix/linop.h"

namespace ektelo {

/// Lazy transpose view: Apply/ApplyT swapped.
class TransposeOp final : public LinOp {
 public:
  explicit TransposeOp(LinOpPtr child);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Abs() const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  const LinOpPtr& child() const { return child_; }

 private:
  LinOpPtr child_;
};

/// Union of query sets: children stacked vertically (same column count).
class VStackOp final : public LinOp {
 public:
  explicit VStackOp(std::vector<LinOpPtr> children);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Abs() const override;
  LinOpPtr Gram() const override;  // sum of the children's Grams
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  const std::vector<LinOpPtr>& children() const { return children_; }

 private:
  std::vector<LinOpPtr> children_;
};

/// Horizontal stack [A | B | ...]: children side by side (same row count);
/// Apply slices x per child and sums nothing, ApplyT concatenates.
class HStackOp final : public LinOp {
 public:
  explicit HStackOp(std::vector<LinOpPtr> children);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Abs() const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  const std::vector<LinOpPtr>& children() const { return children_; }

 protected:
  double ComputeSensitivityL1() const override;

 private:
  std::vector<LinOpPtr> children_;
  std::vector<std::size_t> col_offsets_;
};

/// Elementwise sum A + B + ... of same-shape operators.
class SumOp final : public LinOp {
 public:
  explicit SumOp(std::vector<LinOpPtr> children);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  const std::vector<LinOpPtr>& children() const { return children_; }

 private:
  std::vector<LinOpPtr> children_;
};

/// Matrix product A * B as an operator (Apply = A(B(x))).
/// Abs() is not distributive over products, so unless the product is
/// known binary it materializes (paper Sec. 7.5 notes the binary shortcut).
class ProductOp final : public LinOp {
 public:
  ProductOp(LinOpPtr a, LinOpPtr b, bool binary_hint = false);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Gram() const override;  // B^T Gram(A) B
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  const LinOpPtr& a() const { return a_; }
  const LinOpPtr& b() const { return b_; }

 private:
  LinOpPtr a_, b_;
};

/// Kronecker product A ⊗ B.  Mat-vec costs nB*Time(A) + nA*Time(B)
/// (Table 3) using the vec-trick: (A ⊗ B)x = vec(A X B^T) with X = mat(x).
/// The blocked apply batches both stages: one blocked B-apply over na*k
/// columns, one blocked A-apply over mb*k columns.
class KroneckerOp final : public LinOp {
 public:
  KroneckerOp(LinOpPtr a, LinOpPtr b);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Abs() const override;
  LinOpPtr Gram() const override;  // Gram(A) ⊗ Gram(B)
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  const LinOpPtr& a() const { return a_; }
  const LinOpPtr& b() const { return b_; }

 protected:
  double ComputeSensitivityL1() const override;

 private:
  LinOpPtr a_, b_;
};

/// diag(w) * A: per-row weights (weighted hierarchies, noise-aware LS).
class RowWeightOp final : public LinOp {
 public:
  RowWeightOp(LinOpPtr child, Vec weights);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Abs() const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  const LinOpPtr& child() const { return child_; }
  const Vec& weights() const { return w_; }

 private:
  LinOpPtr child_;
  Vec w_;
};

/// c * A (uniform scaling), with the scalar kept symbolic so Gram and
/// sensitivity stay closed-form: Gram(cA) = c^2 Gram(A).
class ScaleOp final : public LinOp {
 public:
  ScaleOp(LinOpPtr child, double c);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  LinOpPtr Abs() const override;
  LinOpPtr Gram() const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  double scale() const { return c_; }
  const LinOpPtr& child() const { return child_; }

 protected:
  double ComputeSensitivityL1() const override;

 private:
  LinOpPtr child_;
  double c_;
};

LinOpPtr MakeTranspose(LinOpPtr a);
LinOpPtr MakeVStack(std::vector<LinOpPtr> children);
LinOpPtr MakeHStack(std::vector<LinOpPtr> children);
LinOpPtr MakeSum(std::vector<LinOpPtr> children);
LinOpPtr MakeProduct(LinOpPtr a, LinOpPtr b, bool binary_hint = false);
LinOpPtr MakeKronecker(LinOpPtr a, LinOpPtr b);
/// Right fold: Kron(f[0], Kron(f[1], ...)).  Requires >= 1 factor.
LinOpPtr MakeKronecker(std::vector<LinOpPtr> factors);
LinOpPtr MakeRowWeight(LinOpPtr child, Vec weights);
/// c * A (uniform scaling).
LinOpPtr MakeScaled(LinOpPtr child, double c);

}  // namespace ektelo

#endif  // EKTELO_MATRIX_COMBINATORS_H_
