#include "matrix/linop.h"

#include <algorithm>

#include "util/check.h"
#include "util/thread_pool.h"

namespace ektelo {

Vec LinOp::Apply(const Vec& x) const {
  EK_CHECK_EQ(x.size(), cols());
  Vec y(rows());
  ApplyRaw(x.data(), y.data());
  return y;
}

Vec LinOp::ApplyT(const Vec& x) const {
  EK_CHECK_EQ(x.size(), rows());
  Vec y(cols());
  ApplyTRaw(x.data(), y.data());
  return y;
}

namespace {

// Shard grain for per-column fan-out: with no structural cost model for
// an arbitrary operator, approximate one apply as rows+cols work and
// keep at least ~16K units per chunk so tiny operators stay serial.
std::size_t ColumnGrain(std::size_t rows, std::size_t cols) {
  const std::size_t per_col = rows + cols + 1;
  return std::max<std::size_t>(1, std::size_t{1 << 14} / per_col);
}

}  // namespace

void LinOp::ApplyBlockRaw(const double* x, double* y, std::size_t k) const {
  // Fallback: k independent mat-vecs.  Columns are contiguous, so each
  // column is handed to the single-vector kernel directly; columns shard
  // across the pool (a column is computed by exactly one shard, so the
  // result is bitwise-identical at any thread count).
  ParallelFor(k, ColumnGrain(rows(), cols()),
              [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c)
      ApplyRaw(x + c * cols(), y + c * rows());
  });
}

void LinOp::ApplyTBlockRaw(const double* x, double* y, std::size_t k) const {
  ParallelFor(k, ColumnGrain(rows(), cols()),
              [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c)
      ApplyTRaw(x + c * rows(), y + c * cols());
  });
}

Block LinOp::ApplyBlock(const Block& x) const {
  EK_CHECK_EQ(x.rows(), cols());
  Block y(rows(), x.cols());
  ApplyBlockRaw(x.data(), y.data(), x.cols());
  return y;
}

Block LinOp::ApplyTBlock(const Block& x) const {
  EK_CHECK_EQ(x.rows(), rows());
  Block y(cols(), x.cols());
  ApplyTBlockRaw(x.data(), y.data(), x.cols());
  return y;
}

LinOpPtr LinOp::Abs() const {
  if (is_nonneg_binary()) return shared_from_this();
  return MakeSparse(MaterializeSparse().Abs());
}

LinOpPtr LinOp::SelfPtr() const {
  if (LinOpPtr self = weak_from_this().lock()) return self;
  return LinOpPtr(LinOpPtr{}, this);  // non-owning alias
}

LinOpPtr LinOp::Gram() const { return std::make_shared<GramOp>(SelfPtr()); }

CsrMatrix LinOp::MaterializeSparse() const {
  // Fallback: stream identity panels of bounded width through the blocked
  // apply.  Each panel is one blocked traversal of the operator instead of
  // kMaterializePanel scalar mat-vecs; exact zeros are dropped on assembly.
  //
  // Panels are independent, so they evaluate concurrently into per-panel
  // triplet buffers which are then concatenated in panel order — the
  // stream the counting-sort assembly sees is identical to the serial
  // one.  Panel geometry is fixed (kMaterializePanel), not derived from
  // the thread count, so each column's arithmetic never changes.
  const std::size_t n = cols();
  const std::size_t num_panels =
      (n + kMaterializePanel - 1) / kMaterializePanel;
  std::vector<std::vector<Triplet>> panel_triplets(num_panels);
  ParallelFor(num_panels, 1, [&](std::size_t p0, std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t j0 = p * kMaterializePanel;
      const std::size_t k = std::min(kMaterializePanel, n - j0);
      Block panel = Block::IdentityPanel(n, j0, k);
      Block out(rows(), k);
      ApplyBlockRaw(panel.data(), out.data(), k);
      std::vector<Triplet>& t = panel_triplets[p];
      for (std::size_t c = 0; c < k; ++c) {
        const double* col = out.ColPtr(c);
        for (std::size_t i = 0; i < rows(); ++i)
          if (col[i] != 0.0) t.push_back({i, j0 + c, col[i]});
      }
    }
  });
  std::size_t nnz = 0;
  for (const auto& pt : panel_triplets) nnz += pt.size();
  std::vector<Triplet> t;
  t.reserve(nnz);
  for (const auto& pt : panel_triplets)
    t.insert(t.end(), pt.begin(), pt.end());
  // Panels emit column-grouped entries, so CSR assembly is a counting
  // sort — no comparison sort over the nnz.
  return CsrMatrix::FromColumnStream(rows(), cols(), t);
}

DenseMatrix LinOp::MaterializeDense() const {
  return MaterializeSparse().ToDense();
}

// Double-checked caching: the compute runs OUTSIDE the lock because
// ComputeSensitivityL1 implementations re-enter the cached accessor on
// their children (Kronecker, HStack, Scale).  Racing threads at worst
// compute the same deterministic value twice; the first store wins.
double LinOp::SensitivityL1() const {
  {
    std::lock_guard<std::mutex> lock(sens_mu_);
    if (sens_l1_) return *sens_l1_;
  }
  const double v = ComputeSensitivityL1();
  std::lock_guard<std::mutex> lock(sens_mu_);
  if (!sens_l1_) sens_l1_ = v;
  return *sens_l1_;
}

double LinOp::ComputeSensitivityL1() const {
  // max over columns of sum_i |a_ij| = max(Abs()^T * ones).
  LinOpPtr a = Abs();
  Vec ones(rows(), 1.0);
  Vec colsum = a->ApplyT(ones);
  return colsum.empty() ? 0.0
                        : *std::max_element(colsum.begin(), colsum.end());
}

// ---------------------------------------------------------------- DenseOp

DenseOp::DenseOp(DenseMatrix m) : LinOp(m.rows(), m.cols()), m_(std::move(m)) {
  bool binary = true;
  for (double v : m_.data()) {
    if (v != 0.0 && v != 1.0) {
      binary = false;
      break;
    }
  }
  set_nonneg_binary(binary);
}

void DenseOp::ApplyRaw(const double* x, double* y) const { m_.Matvec(x, y); }
void DenseOp::ApplyTRaw(const double* x, double* y) const { m_.RmatVec(x, y); }

void DenseOp::ApplyBlockRaw(const double* x, double* y, std::size_t k) const {
  DenseMatmat(m_, x, y, k);
}

void DenseOp::ApplyTBlockRaw(const double* x, double* y,
                             std::size_t k) const {
  DenseRmatMat(m_, x, y, k);
}

LinOpPtr DenseOp::Abs() const {
  if (is_nonneg_binary()) return shared_from_this();
  return MakeDense(m_.Abs());
}

LinOpPtr DenseOp::Gram() const {
  // For wide matrices (rows < cols) the composed form is both cheaper to
  // build (nothing to precompute) and cheaper per apply (2mn < n^2 flops),
  // so only precompute A^T A when the matrix is at least square-ish.
  if (rows() < cols()) return LinOp::Gram();
  return MakeDense(m_.Gram());
}

CsrMatrix DenseOp::MaterializeSparse() const {
  return CsrMatrix::FromDense(m_);
}

DenseMatrix DenseOp::MaterializeDense() const { return m_; }

double DenseOp::ComputeSensitivityL1() const { return m_.MaxColNormL1(); }

std::string DenseOp::DebugName() const {
  return "Dense(" + std::to_string(rows()) + "x" + std::to_string(cols()) +
         ")";
}

// ---------------------------------------------------------------- SparseOp

SparseOp::SparseOp(CsrMatrix m)
    : LinOp(m.rows(), m.cols()), m_(std::move(m)) {
  bool binary = true;
  for (double v : m_.values()) {
    if (v != 1.0) {
      binary = false;
      break;
    }
  }
  set_nonneg_binary(binary);
}

void SparseOp::ApplyRaw(const double* x, double* y) const { m_.Matvec(x, y); }
void SparseOp::ApplyTRaw(const double* x, double* y) const {
  m_.RmatVec(x, y);
}

void SparseOp::ApplyBlockRaw(const double* x, double* y,
                             std::size_t k) const {
  CsrMatmat(m_, x, y, k);
}

void SparseOp::ApplyTBlockRaw(const double* x, double* y,
                              std::size_t k) const {
  CsrRmatMat(m_, x, y, k);
}

LinOpPtr SparseOp::Abs() const {
  if (is_nonneg_binary()) return shared_from_this();
  return MakeSparse(m_.Abs());
}

LinOpPtr SparseOp::Gram() const {
  // A^T A can be catastrophically denser than A itself — one dense row
  // (e.g. a hierarchy's root) makes the Gram fully dense.  The update
  // count of the sparse matmul is exactly sum_i nnz(row_i)^2, so
  // materialize only when that stays within a small multiple of nnz(A)
  // and fall back to the composed matrix-free form (2 sweeps of A per
  // apply) otherwise.
  const double budget = 64.0 * static_cast<double>(m_.nnz() + cols() + 1);
  double work = 0.0;
  for (std::size_t i = 0; i < m_.rows() && work <= budget; ++i) {
    const double r =
        static_cast<double>(m_.indptr()[i + 1] - m_.indptr()[i]);
    work += r * r;
  }
  if (work > budget) return LinOp::Gram();
  return MakeSparse(m_.Transpose().Matmul(m_));
}

CsrMatrix SparseOp::MaterializeSparse() const { return m_; }

double SparseOp::ComputeSensitivityL1() const { return m_.MaxColNormL1(); }

std::string SparseOp::DebugName() const {
  return "Sparse(" + std::to_string(rows()) + "x" + std::to_string(cols()) +
         ",nnz=" + std::to_string(m_.nnz()) + ")";
}

// ------------------------------------------------------------------ GramOp

GramOp::GramOp(LinOpPtr child)
    : LinOp(child->cols(), child->cols()), child_(std::move(child)) {}

void GramOp::ApplyRaw(const double* x, double* y) const {
  Vec tmp(child_->rows());
  child_->ApplyRaw(x, tmp.data());
  child_->ApplyTRaw(tmp.data(), y);
}

void GramOp::ApplyTRaw(const double* x, double* y) const {
  ApplyRaw(x, y);  // symmetric
}

void GramOp::ApplyBlockRaw(const double* x, double* y, std::size_t k) const {
  Block tmp(child_->rows(), k);
  child_->ApplyBlockRaw(x, tmp.data(), k);
  child_->ApplyTBlockRaw(tmp.data(), y, k);
}

void GramOp::ApplyTBlockRaw(const double* x, double* y, std::size_t k) const {
  ApplyBlockRaw(x, y, k);
}

LinOpPtr GramOp::Gram() const {
  // (M^T M)^T (M^T M): keep it lazy; callers rarely need this.
  return std::make_shared<GramOp>(SelfPtr());
}

std::string GramOp::DebugName() const {
  return "Gram(" + child_->DebugName() + ")";
}

LinOpPtr MakeDense(DenseMatrix m) {
  return std::make_shared<DenseOp>(std::move(m));
}
LinOpPtr MakeSparse(CsrMatrix m) {
  return std::make_shared<SparseOp>(std::move(m));
}

Vec RowOf(const LinOp& m, std::size_t i) {
  EK_CHECK_LT(i, m.rows());
  Vec e(m.rows(), 0.0);
  e[i] = 1.0;
  return m.ApplyT(e);
}

CsrMatrix GramSparse(const LinOp& m) {
  return m.Gram()->MaterializeSparse();
}

}  // namespace ektelo
