#include "matrix/combinators.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ektelo {

// -------------------------------------------------------------- Transpose

TransposeOp::TransposeOp(LinOpPtr child)
    : LinOp(child->cols(), child->rows()), child_(std::move(child)) {
  set_nonneg_binary(child_->is_nonneg_binary());
}

void TransposeOp::ApplyRaw(const double* x, double* y) const {
  child_->ApplyTRaw(x, y);
}
void TransposeOp::ApplyTRaw(const double* x, double* y) const {
  child_->ApplyRaw(x, y);
}

void TransposeOp::ApplyBlockRaw(const double* x, double* y,
                                std::size_t k) const {
  child_->ApplyTBlockRaw(x, y, k);
}
void TransposeOp::ApplyTBlockRaw(const double* x, double* y,
                                 std::size_t k) const {
  child_->ApplyBlockRaw(x, y, k);
}

LinOpPtr TransposeOp::Abs() const {
  if (is_nonneg_binary()) return shared_from_this();
  return MakeTranspose(child_->Abs());
}

CsrMatrix TransposeOp::MaterializeSparse() const {
  return child_->MaterializeSparse().Transpose();
}

std::string TransposeOp::DebugName() const {
  return "Transpose(" + child_->DebugName() + ")";
}

// ------------------------------------------------------------------ Union

namespace {
std::size_t SumRows(const std::vector<LinOpPtr>& cs) {
  std::size_t r = 0;
  for (const auto& c : cs) r += c->rows();
  return r;
}
std::size_t SumCols(const std::vector<LinOpPtr>& cs) {
  std::size_t r = 0;
  for (const auto& c : cs) r += c->cols();
  return r;
}
}  // namespace

VStackOp::VStackOp(std::vector<LinOpPtr> children)
    : LinOp(SumRows(children), children.empty() ? 0 : children[0]->cols()),
      children_(std::move(children)) {
  EK_CHECK(!children_.empty());
  bool binary = true;
  for (const auto& c : children_) {
    EK_CHECK_EQ(c->cols(), cols());
    binary = binary && c->is_nonneg_binary();
  }
  set_nonneg_binary(binary);
}

void VStackOp::ApplyRaw(const double* x, double* y) const {
  std::size_t off = 0;
  for (const auto& c : children_) {
    c->ApplyRaw(x, y + off);
    off += c->rows();
  }
}

void VStackOp::ApplyTRaw(const double* x, double* y) const {
  std::fill(y, y + cols(), 0.0);
  Vec tmp(cols());
  std::size_t off = 0;
  for (const auto& c : children_) {
    c->ApplyTRaw(x + off, tmp.data());
    for (std::size_t j = 0; j < cols(); ++j) y[j] += tmp[j];
    off += c->rows();
  }
}

void VStackOp::ApplyBlockRaw(const double* x, double* y,
                             std::size_t k) const {
  // Each child evaluates its own contiguous (child_rows x k) block, then
  // its rows are interleaved into the stacked column-major output.
  Block tmp;
  std::size_t off = 0;
  for (const auto& ch : children_) {
    const std::size_t r = ch->rows();
    tmp = Block(r, k);
    ch->ApplyBlockRaw(x, tmp.data(), k);
    for (std::size_t c = 0; c < k; ++c)
      std::copy(tmp.ColPtr(c), tmp.ColPtr(c) + r, y + c * rows() + off);
    off += r;
  }
}

void VStackOp::ApplyTBlockRaw(const double* x, double* y,
                              std::size_t k) const {
  std::fill(y, y + cols() * k, 0.0);
  Block slice, tmp(cols(), k);
  std::size_t off = 0;
  for (const auto& ch : children_) {
    const std::size_t r = ch->rows();
    slice = Block(r, k);
    for (std::size_t c = 0; c < k; ++c)
      std::copy(x + c * rows() + off, x + c * rows() + off + r,
                slice.ColPtr(c));
    ch->ApplyTBlockRaw(slice.data(), tmp.data(), k);
    for (std::size_t i = 0; i < cols() * k; ++i) y[i] += tmp.data()[i];
    off += r;
  }
}

LinOpPtr VStackOp::Abs() const {
  if (is_nonneg_binary()) return shared_from_this();
  std::vector<LinOpPtr> abs_children;
  abs_children.reserve(children_.size());
  for (const auto& c : children_) abs_children.push_back(c->Abs());
  return MakeVStack(std::move(abs_children));
}

LinOpPtr VStackOp::Gram() const {
  // [A; B]^T [A; B] = A^T A + B^T B: the stack's Gram is the sum of the
  // children's (structured) Grams.
  std::vector<LinOpPtr> grams;
  grams.reserve(children_.size());
  for (const auto& c : children_) grams.push_back(c->Gram());
  return MakeSum(std::move(grams));
}

CsrMatrix VStackOp::MaterializeSparse() const {
  // Single-pass multi-way concatenation: folding VStack pairwise re-copies
  // the accumulated matrix per child (quadratic in the child count).
  std::vector<CsrMatrix> parts;
  parts.reserve(children_.size());
  for (const auto& c : children_) parts.push_back(c->MaterializeSparse());
  return CsrMatrix::VStackMany(parts);
}

std::string VStackOp::DebugName() const {
  std::string s = "Union(";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i) s += ",";
    s += children_[i]->DebugName();
  }
  return s + ")";
}

// ----------------------------------------------------------------- HStack

HStackOp::HStackOp(std::vector<LinOpPtr> children)
    : LinOp(children.empty() ? 0 : children[0]->rows(), SumCols(children)),
      children_(std::move(children)) {
  EK_CHECK(!children_.empty());
  bool binary = true;
  std::size_t off = 0;
  for (const auto& c : children_) {
    EK_CHECK_EQ(c->rows(), rows());
    binary = binary && c->is_nonneg_binary();
    col_offsets_.push_back(off);
    off += c->cols();
  }
  set_nonneg_binary(binary);
}

void HStackOp::ApplyRaw(const double* x, double* y) const {
  std::fill(y, y + rows(), 0.0);
  Vec tmp(rows());
  for (std::size_t i = 0; i < children_.size(); ++i) {
    children_[i]->ApplyRaw(x + col_offsets_[i], tmp.data());
    for (std::size_t r = 0; r < rows(); ++r) y[r] += tmp[r];
  }
}

void HStackOp::ApplyTRaw(const double* x, double* y) const {
  for (std::size_t i = 0; i < children_.size(); ++i)
    children_[i]->ApplyTRaw(x, y + col_offsets_[i]);
}

void HStackOp::ApplyBlockRaw(const double* x, double* y,
                             std::size_t k) const {
  std::fill(y, y + rows() * k, 0.0);
  Block slice, tmp(rows(), k);
  for (std::size_t i = 0; i < children_.size(); ++i) {
    const std::size_t nc = children_[i]->cols();
    slice = Block(nc, k);
    for (std::size_t c = 0; c < k; ++c)
      std::copy(x + c * cols() + col_offsets_[i],
                x + c * cols() + col_offsets_[i] + nc, slice.ColPtr(c));
    children_[i]->ApplyBlockRaw(slice.data(), tmp.data(), k);
    for (std::size_t j = 0; j < rows() * k; ++j) y[j] += tmp.data()[j];
  }
}

void HStackOp::ApplyTBlockRaw(const double* x, double* y,
                              std::size_t k) const {
  Block tmp;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    const std::size_t nc = children_[i]->cols();
    tmp = Block(nc, k);
    children_[i]->ApplyTBlockRaw(x, tmp.data(), k);
    for (std::size_t c = 0; c < k; ++c)
      std::copy(tmp.ColPtr(c), tmp.ColPtr(c) + nc,
                y + c * cols() + col_offsets_[i]);
  }
}

LinOpPtr HStackOp::Abs() const {
  if (is_nonneg_binary()) return shared_from_this();
  std::vector<LinOpPtr> abs_children;
  abs_children.reserve(children_.size());
  for (const auto& c : children_) abs_children.push_back(c->Abs());
  return MakeHStack(std::move(abs_children));
}

double HStackOp::ComputeSensitivityL1() const {
  // Columns of distinct children never overlap, so the max column norm is
  // the max over children.
  double s = 0.0;
  for (const auto& c : children_) s = std::max(s, c->SensitivityL1());
  return s;
}

CsrMatrix HStackOp::MaterializeSparse() const {
  // Single-pass multi-way concatenation with precomputed nnz and row
  // pointers (the triplet route re-sorted every entry).
  std::vector<CsrMatrix> parts;
  parts.reserve(children_.size());
  for (const auto& c : children_) parts.push_back(c->MaterializeSparse());
  return CsrMatrix::HStackMany(parts);
}

std::string HStackOp::DebugName() const {
  std::string s = "HStack(";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i) s += ",";
    s += children_[i]->DebugName();
  }
  return s + ")";
}

// -------------------------------------------------------------------- Sum

SumOp::SumOp(std::vector<LinOpPtr> children)
    : LinOp(children.empty() ? 0 : children[0]->rows(),
            children.empty() ? 0 : children[0]->cols()),
      children_(std::move(children)) {
  EK_CHECK(!children_.empty());
  for (const auto& c : children_) {
    EK_CHECK_EQ(c->rows(), rows());
    EK_CHECK_EQ(c->cols(), cols());
  }
}

void SumOp::ApplyRaw(const double* x, double* y) const {
  children_[0]->ApplyRaw(x, y);
  Vec tmp(rows());
  for (std::size_t i = 1; i < children_.size(); ++i) {
    children_[i]->ApplyRaw(x, tmp.data());
    for (std::size_t r = 0; r < rows(); ++r) y[r] += tmp[r];
  }
}

void SumOp::ApplyTRaw(const double* x, double* y) const {
  children_[0]->ApplyTRaw(x, y);
  Vec tmp(cols());
  for (std::size_t i = 1; i < children_.size(); ++i) {
    children_[i]->ApplyTRaw(x, tmp.data());
    for (std::size_t j = 0; j < cols(); ++j) y[j] += tmp[j];
  }
}

void SumOp::ApplyBlockRaw(const double* x, double* y, std::size_t k) const {
  children_[0]->ApplyBlockRaw(x, y, k);
  Block tmp(rows(), k);
  for (std::size_t i = 1; i < children_.size(); ++i) {
    children_[i]->ApplyBlockRaw(x, tmp.data(), k);
    for (std::size_t j = 0; j < rows() * k; ++j) y[j] += tmp.data()[j];
  }
}

void SumOp::ApplyTBlockRaw(const double* x, double* y, std::size_t k) const {
  children_[0]->ApplyTBlockRaw(x, y, k);
  Block tmp(cols(), k);
  for (std::size_t i = 1; i < children_.size(); ++i) {
    children_[i]->ApplyTBlockRaw(x, tmp.data(), k);
    for (std::size_t j = 0; j < cols() * k; ++j) y[j] += tmp.data()[j];
  }
}

CsrMatrix SumOp::MaterializeSparse() const {
  std::vector<Triplet> t;
  for (const auto& ch : children_) {
    CsrMatrix m = ch->MaterializeSparse();
    for (std::size_t r = 0; r < m.rows(); ++r)
      for (std::size_t p = m.indptr()[r]; p < m.indptr()[r + 1]; ++p)
        t.push_back({r, m.indices()[p], m.values()[p]});
  }
  return CsrMatrix::FromTriplets(rows(), cols(), std::move(t));
}

std::string SumOp::DebugName() const {
  std::string s = "Sum(";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i) s += ",";
    s += children_[i]->DebugName();
  }
  return s + ")";
}

// ---------------------------------------------------------------- Product

ProductOp::ProductOp(LinOpPtr a, LinOpPtr b, bool binary_hint)
    : LinOp(a->rows(), b->cols()), a_(std::move(a)), b_(std::move(b)) {
  EK_CHECK_EQ(a_->cols(), b_->rows());
  set_nonneg_binary(binary_hint);
}

void ProductOp::ApplyRaw(const double* x, double* y) const {
  Vec tmp(b_->rows());
  b_->ApplyRaw(x, tmp.data());
  a_->ApplyRaw(tmp.data(), y);
}

void ProductOp::ApplyTRaw(const double* x, double* y) const {
  Vec tmp(a_->cols());
  a_->ApplyTRaw(x, tmp.data());
  b_->ApplyTRaw(tmp.data(), y);
}

void ProductOp::ApplyBlockRaw(const double* x, double* y,
                              std::size_t k) const {
  Block tmp(b_->rows(), k);
  b_->ApplyBlockRaw(x, tmp.data(), k);
  a_->ApplyBlockRaw(tmp.data(), y, k);
}

void ProductOp::ApplyTBlockRaw(const double* x, double* y,
                               std::size_t k) const {
  Block tmp(a_->cols(), k);
  a_->ApplyTBlockRaw(x, tmp.data(), k);
  b_->ApplyTBlockRaw(tmp.data(), y, k);
}

LinOpPtr ProductOp::Gram() const {
  // (AB)^T (AB) = B^T Gram(A) B, preserving any structure in Gram(A).
  return MakeProduct(MakeTranspose(b_), MakeProduct(a_->Gram(), b_));
}

CsrMatrix ProductOp::MaterializeSparse() const {
  return a_->MaterializeSparse().Matmul(b_->MaterializeSparse());
}

std::string ProductOp::DebugName() const {
  return "Product(" + a_->DebugName() + "," + b_->DebugName() + ")";
}

// -------------------------------------------------------------- Kronecker

KroneckerOp::KroneckerOp(LinOpPtr a, LinOpPtr b)
    : LinOp(a->rows() * b->rows(), a->cols() * b->cols()),
      a_(std::move(a)),
      b_(std::move(b)) {
  set_nonneg_binary(a_->is_nonneg_binary() && b_->is_nonneg_binary());
}

void KroneckerOp::ApplyRaw(const double* x, double* y) const {
  ApplyBlockRaw(x, y, 1);
}

void KroneckerOp::ApplyTRaw(const double* x, double* y) const {
  ApplyTBlockRaw(x, y, 1);
}

void KroneckerOp::ApplyBlockRaw(const double* x, double* y,
                                std::size_t k) const {
  const std::size_t na = a_->cols(), nb = b_->cols();
  const std::size_t ma = a_->rows(), mb = b_->rows();
  const std::size_t n = na * nb, m = ma * mb;
  // Stage 1 (vec-trick, batched): every (RHS c, block ja) slice of x is a
  // contiguous nb-vector; B is applied to all na*k of them in one blocked
  // call.  Column q = c*na + ja of xb is x[c*n + ja*nb ...].
  Block xb(nb, na * k);
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t ja = 0; ja < na; ++ja)
      std::copy(x + c * n + ja * nb, x + c * n + (ja + 1) * nb,
                xb.ColPtr(c * na + ja));
  Block zb = b_->ApplyBlock(xb);  // mb x (na*k)
  // Stage 2: gather Z^T slices and apply A to all mb*k of them at once.
  // Column q2 = c*mb + ib of xa has entries xa(ja) = Z_c[ja, ib].
  Block xa(na, mb * k);
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t ib = 0; ib < mb; ++ib) {
      double* dst = xa.ColPtr(c * mb + ib);
      for (std::size_t ja = 0; ja < na; ++ja)
        dst[ja] = zb.At(ib, c * na + ja);
    }
  Block ya = a_->ApplyBlock(xa);  // ma x (mb*k)
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t ib = 0; ib < mb; ++ib) {
      const double* src = ya.ColPtr(c * mb + ib);
      for (std::size_t ia = 0; ia < ma; ++ia)
        y[c * m + ia * mb + ib] = src[ia];
    }
}

void KroneckerOp::ApplyTBlockRaw(const double* x, double* y,
                                 std::size_t k) const {
  const std::size_t na = a_->cols(), nb = b_->cols();
  const std::size_t ma = a_->rows(), mb = b_->rows();
  const std::size_t n = na * nb, m = ma * mb;
  Block xb(mb, ma * k);
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t ia = 0; ia < ma; ++ia)
      std::copy(x + c * m + ia * mb, x + c * m + (ia + 1) * mb,
                xb.ColPtr(c * ma + ia));
  Block zb = b_->ApplyTBlock(xb);  // nb x (ma*k)
  Block xa(ma, nb * k);
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t jb = 0; jb < nb; ++jb) {
      double* dst = xa.ColPtr(c * nb + jb);
      for (std::size_t ia = 0; ia < ma; ++ia)
        dst[ia] = zb.At(jb, c * ma + ia);
    }
  Block ya = a_->ApplyTBlock(xa);  // na x (nb*k)
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t jb = 0; jb < nb; ++jb) {
      const double* src = ya.ColPtr(c * nb + jb);
      for (std::size_t ja = 0; ja < na; ++ja)
        y[c * n + ja * nb + jb] = src[ja];
    }
}

LinOpPtr KroneckerOp::Abs() const {
  if (is_nonneg_binary()) return shared_from_this();
  // |A ⊗ B| = |A| ⊗ |B|.
  return MakeKronecker(a_->Abs(), b_->Abs());
}

LinOpPtr KroneckerOp::Gram() const {
  // (A ⊗ B)^T (A ⊗ B) = (A^T A) ⊗ (B^T B).
  return MakeKronecker(a_->Gram(), b_->Gram());
}

CsrMatrix KroneckerOp::MaterializeSparse() const {
  return a_->MaterializeSparse().Kronecker(b_->MaterializeSparse());
}

double KroneckerOp::ComputeSensitivityL1() const {
  // Column norms of a Kronecker product factorize.
  return a_->SensitivityL1() * b_->SensitivityL1();
}

std::string KroneckerOp::DebugName() const {
  return "Kron(" + a_->DebugName() + "," + b_->DebugName() + ")";
}

// -------------------------------------------------------------- RowWeight

RowWeightOp::RowWeightOp(LinOpPtr child, Vec weights)
    : LinOp(child->rows(), child->cols()),
      child_(std::move(child)),
      w_(std::move(weights)) {
  EK_CHECK_EQ(w_.size(), rows());
}

void RowWeightOp::ApplyRaw(const double* x, double* y) const {
  child_->ApplyRaw(x, y);
  for (std::size_t i = 0; i < rows(); ++i) y[i] *= w_[i];
}

void RowWeightOp::ApplyTRaw(const double* x, double* y) const {
  Vec scaled(rows());
  for (std::size_t i = 0; i < rows(); ++i) scaled[i] = x[i] * w_[i];
  child_->ApplyTRaw(scaled.data(), y);
}

void RowWeightOp::ApplyBlockRaw(const double* x, double* y,
                                std::size_t k) const {
  child_->ApplyBlockRaw(x, y, k);
  for (std::size_t c = 0; c < k; ++c) {
    double* yc = y + c * rows();
    for (std::size_t i = 0; i < rows(); ++i) yc[i] *= w_[i];
  }
}

void RowWeightOp::ApplyTBlockRaw(const double* x, double* y,
                                 std::size_t k) const {
  Block scaled(rows(), k);
  for (std::size_t c = 0; c < k; ++c) {
    const double* xc = x + c * rows();
    double* sc = scaled.ColPtr(c);
    for (std::size_t i = 0; i < rows(); ++i) sc[i] = xc[i] * w_[i];
  }
  child_->ApplyTBlockRaw(scaled.data(), y, k);
}

LinOpPtr RowWeightOp::Abs() const {
  Vec aw(w_.size());
  for (std::size_t i = 0; i < w_.size(); ++i) aw[i] = std::abs(w_[i]);
  return MakeRowWeight(child_->Abs(), std::move(aw));
}

CsrMatrix RowWeightOp::MaterializeSparse() const {
  return child_->MaterializeSparse().ScaleRows(w_);
}

std::string RowWeightOp::DebugName() const {
  return "RowWeight(" + child_->DebugName() + ")";
}

// ------------------------------------------------------------------ Scale

ScaleOp::ScaleOp(LinOpPtr child, double c)
    : LinOp(child->rows(), child->cols()), child_(std::move(child)), c_(c) {
  set_nonneg_binary(c_ == 1.0 && child_->is_nonneg_binary());
}

void ScaleOp::ApplyRaw(const double* x, double* y) const {
  child_->ApplyRaw(x, y);
  for (std::size_t i = 0; i < rows(); ++i) y[i] *= c_;
}

void ScaleOp::ApplyTRaw(const double* x, double* y) const {
  child_->ApplyTRaw(x, y);
  for (std::size_t j = 0; j < cols(); ++j) y[j] *= c_;
}

void ScaleOp::ApplyBlockRaw(const double* x, double* y, std::size_t k) const {
  child_->ApplyBlockRaw(x, y, k);
  for (std::size_t i = 0; i < rows() * k; ++i) y[i] *= c_;
}

void ScaleOp::ApplyTBlockRaw(const double* x, double* y,
                             std::size_t k) const {
  child_->ApplyTBlockRaw(x, y, k);
  for (std::size_t i = 0; i < cols() * k; ++i) y[i] *= c_;
}

LinOpPtr ScaleOp::Abs() const {
  if (is_nonneg_binary()) return shared_from_this();
  return MakeScaled(child_->Abs(), std::abs(c_));
}

LinOpPtr ScaleOp::Gram() const { return MakeScaled(child_->Gram(), c_ * c_); }

CsrMatrix ScaleOp::MaterializeSparse() const {
  CsrMatrix m = child_->MaterializeSparse();
  for (double& v : m.values()) v *= c_;
  return m;
}

double ScaleOp::ComputeSensitivityL1() const {
  return std::abs(c_) * child_->SensitivityL1();
}

std::string ScaleOp::DebugName() const {
  return "Scale(" + std::to_string(c_) + "," + child_->DebugName() + ")";
}

// -------------------------------------------------------------- factories

LinOpPtr MakeTranspose(LinOpPtr a) {
  return std::make_shared<TransposeOp>(std::move(a));
}

LinOpPtr MakeVStack(std::vector<LinOpPtr> children) {
  if (children.size() == 1) return children[0];
  return std::make_shared<VStackOp>(std::move(children));
}

LinOpPtr MakeHStack(std::vector<LinOpPtr> children) {
  if (children.size() == 1) return children[0];
  return std::make_shared<HStackOp>(std::move(children));
}

LinOpPtr MakeSum(std::vector<LinOpPtr> children) {
  if (children.size() == 1) return children[0];
  return std::make_shared<SumOp>(std::move(children));
}

LinOpPtr MakeProduct(LinOpPtr a, LinOpPtr b, bool binary_hint) {
  return std::make_shared<ProductOp>(std::move(a), std::move(b), binary_hint);
}

LinOpPtr MakeKronecker(LinOpPtr a, LinOpPtr b) {
  return std::make_shared<KroneckerOp>(std::move(a), std::move(b));
}

LinOpPtr MakeKronecker(std::vector<LinOpPtr> factors) {
  EK_CHECK(!factors.empty());
  LinOpPtr acc = factors.back();
  for (std::size_t i = factors.size() - 1; i-- > 0;)
    acc = MakeKronecker(factors[i], acc);
  return acc;
}

LinOpPtr MakeRowWeight(LinOpPtr child, Vec weights) {
  return std::make_shared<RowWeightOp>(std::move(child), std::move(weights));
}

LinOpPtr MakeScaled(LinOpPtr child, double c) {
  if (c == 1.0) return child;
  return std::make_shared<ScaleOp>(std::move(child), c);
}

}  // namespace ektelo
