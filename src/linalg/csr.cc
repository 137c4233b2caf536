#include "linalg/csr.h"

#include <algorithm>
#include <cmath>

namespace ektelo {

CsrMatrix CsrMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                  std::vector<Triplet> triplets) {
  CsrMatrix m(rows, cols);
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  m.indices_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  std::size_t k = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    while (k < triplets.size() && triplets[k].row == r) {
      EK_CHECK_LT(triplets[k].col, cols);
      // Merge duplicates within the row (sorted by col).
      double v = triplets[k].value;
      std::size_t c = triplets[k].col;
      ++k;
      while (k < triplets.size() && triplets[k].row == r &&
             triplets[k].col == c) {
        v += triplets[k].value;
        ++k;
      }
      if (v != 0.0) {
        m.indices_.push_back(c);
        m.values_.push_back(v);
      }
    }
    m.indptr_[r + 1] = m.indices_.size();
  }
  EK_CHECK_EQ(k, triplets.size());
  return m;
}

CsrMatrix CsrMatrix::FromColumnStream(std::size_t rows, std::size_t cols,
                                      const std::vector<Triplet>& entries) {
  CsrMatrix m(rows, cols);
  for (const Triplet& t : entries) {
    EK_CHECK_LT(t.row, rows);
    ++m.indptr_[t.row + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) m.indptr_[r + 1] += m.indptr_[r];
  m.indices_.resize(entries.size());
  m.values_.resize(entries.size());
  std::vector<std::size_t> next(m.indptr_.begin(), m.indptr_.end() - 1);
  // Stable scatter: within a row, entries arrive in ascending column order
  // because the stream is column-grouped.
  for (const Triplet& t : entries) {
    EK_CHECK_LT(t.col, cols);
    const std::size_t pos = next[t.row]++;
    m.indices_[pos] = t.col;
    m.values_[pos] = t.value;
  }
  EK_DCHECK_ALIGNED64(m.values_.data());
  return m;
}

CsrMatrix CsrMatrix::Identity(std::size_t n) {
  CsrMatrix m(n, n);
  m.indices_.resize(n);
  m.values_.assign(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    m.indices_[i] = i;
    m.indptr_[i + 1] = i + 1;
  }
  return m;
}

CsrMatrix CsrMatrix::FromDense(const DenseMatrix& d, double drop_tol) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j)
      if (std::abs(d.At(i, j)) > drop_tol) t.push_back({i, j, d.At(i, j)});
  return FromTriplets(d.rows(), d.cols(), std::move(t));
}

Vec CsrMatrix::Matvec(const Vec& x) const {
  EK_CHECK_EQ(x.size(), cols_);
  Vec y(rows_);
  Matvec(x.data(), y.data());
  return y;
}

void CsrMatrix::Matvec(const double* x, double* y) const {
  for (std::size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k)
      s += values_[k] * x[indices_[k]];
    y[i] = s;
  }
}

Vec CsrMatrix::RmatVec(const Vec& x) const {
  EK_CHECK_EQ(x.size(), rows_);
  Vec y(cols_);
  RmatVec(x.data(), y.data());
  return y;
}

void CsrMatrix::RmatVec(const double* x, double* y) const {
  std::fill(y, y + cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k)
      y[indices_[k]] += xi * values_[k];
  }
}

CsrMatrix CsrMatrix::Transpose() const {
  CsrMatrix t(cols_, rows_);
  // Counting sort by column.
  std::vector<std::size_t> count(cols_ + 1, 0);
  for (std::size_t k = 0; k < nnz(); ++k) ++count[indices_[k] + 1];
  for (std::size_t j = 0; j < cols_; ++j) count[j + 1] += count[j];
  t.indptr_ = count;
  t.indices_.resize(nnz());
  t.values_.resize(nnz());
  std::vector<std::size_t> next = count;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k) {
      std::size_t pos = next[indices_[k]]++;
      t.indices_[pos] = i;
      t.values_[pos] = values_[k];
    }
  }
  return t;
}

std::size_t CsrMatrix::MatmulUpdateBound(const CsrMatrix& other) const {
  EK_CHECK_EQ(cols_, other.rows());
  std::size_t updates = 0;
  for (std::size_t k = 0; k < nnz(); ++k)
    updates += other.indptr_[indices_[k] + 1] - other.indptr_[indices_[k]];
  return updates;
}

CsrMatrix CsrMatrix::Matmul(const CsrMatrix& other) const {
  EK_CHECK_EQ(cols_, other.rows());
  CsrMatrix r(rows_, other.cols());
  // Reserve an nnz estimate up front: the update bound caps the result
  // nnz, and reserving it avoids the repeated reallocation that
  // dominates hierarchy-product workloads.  Capped by the dense size and
  // a multiple of the input nnz so a pessimistic bound (dense-ish
  // overlap with a tiny true product) cannot eagerly allocate runaway
  // memory — beyond the cap, amortized growth takes over.
  {
    const std::size_t cap = std::min<std::size_t>(
        {MatmulUpdateBound(other), rows_ * other.cols(),
         std::max<std::size_t>(std::size_t{1} << 20,
                               8 * (nnz() + other.nnz()))});
    r.indices_.reserve(cap);
    r.values_.reserve(cap);
  }
  // Row-wise sparse accumulator.
  std::vector<double> acc(other.cols(), 0.0);
  std::vector<std::size_t> touched;
  for (std::size_t i = 0; i < rows_; ++i) {
    touched.clear();
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k) {
      const std::size_t a_col = indices_[k];
      const double a_val = values_[k];
      for (std::size_t k2 = other.indptr_[a_col]; k2 < other.indptr_[a_col + 1];
           ++k2) {
        const std::size_t j = other.indices_[k2];
        if (acc[j] == 0.0) touched.push_back(j);
        acc[j] += a_val * other.values_[k2];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (std::size_t j : touched) {
      if (acc[j] != 0.0) {
        r.indices_.push_back(j);
        r.values_.push_back(acc[j]);
      }
      acc[j] = 0.0;
    }
    r.indptr_[i + 1] = r.indices_.size();
  }
  return r;
}

CsrMatrix CsrMatrix::Kronecker(const CsrMatrix& other) const {
  CsrMatrix r(rows_ * other.rows(), cols_ * other.cols());
  r.indices_.reserve(nnz() * other.nnz());
  r.values_.reserve(nnz() * other.nnz());
  for (std::size_t ia = 0; ia < rows_; ++ia) {
    for (std::size_t ib = 0; ib < other.rows(); ++ib) {
      const std::size_t row = ia * other.rows() + ib;
      for (std::size_t ka = indptr_[ia]; ka < indptr_[ia + 1]; ++ka) {
        for (std::size_t kb = other.indptr_[ib]; kb < other.indptr_[ib + 1];
             ++kb) {
          r.indices_.push_back(indices_[ka] * other.cols() +
                               other.indices_[kb]);
          r.values_.push_back(values_[ka] * other.values_[kb]);
        }
      }
      r.indptr_[row + 1] = r.indices_.size();
    }
  }
  return r;
}

CsrMatrix CsrMatrix::VStack(const CsrMatrix& other) const {
  EK_CHECK_EQ(cols_, other.cols());
  CsrMatrix r(rows_ + other.rows(), cols_);
  r.indices_ = indices_;
  r.indices_.insert(r.indices_.end(), other.indices_.begin(),
                    other.indices_.end());
  r.values_ = values_;
  r.values_.insert(r.values_.end(), other.values_.begin(),
                   other.values_.end());
  for (std::size_t i = 0; i < rows_; ++i) r.indptr_[i + 1] = indptr_[i + 1];
  for (std::size_t i = 0; i < other.rows(); ++i)
    r.indptr_[rows_ + i + 1] = nnz() + other.indptr_[i + 1];
  return r;
}

CsrMatrix CsrMatrix::VStackMany(const std::vector<CsrMatrix>& parts) {
  EK_CHECK(!parts.empty());
  const std::size_t cols = parts[0].cols();
  std::size_t rows = 0, nnz = 0;
  for (const auto& p : parts) {
    EK_CHECK_EQ(p.cols(), cols);
    rows += p.rows();
    nnz += p.nnz();
  }
  CsrMatrix r(rows, cols);
  r.indices_.reserve(nnz);
  r.values_.reserve(nnz);
  std::size_t row0 = 0;
  for (const auto& p : parts) {
    const std::size_t base = r.indices_.size();
    r.indices_.insert(r.indices_.end(), p.indices_.begin(), p.indices_.end());
    r.values_.insert(r.values_.end(), p.values_.begin(), p.values_.end());
    for (std::size_t i = 0; i < p.rows(); ++i)
      r.indptr_[row0 + i + 1] = base + p.indptr_[i + 1];
    row0 += p.rows();
  }
  return r;
}

CsrMatrix CsrMatrix::HStackMany(const std::vector<CsrMatrix>& parts) {
  EK_CHECK(!parts.empty());
  const std::size_t rows = parts[0].rows();
  std::size_t cols = 0, nnz = 0;
  for (const auto& p : parts) {
    EK_CHECK_EQ(p.rows(), rows);
    cols += p.cols();
    nnz += p.nnz();
  }
  CsrMatrix r(rows, cols);
  r.indices_.resize(nnz);
  r.values_.resize(nnz);
  // Row pointers: row i holds row i of every part, in part order (which
  // also keeps column indices ascending, since offsets increase).
  for (std::size_t i = 0; i < rows; ++i) {
    std::size_t len = 0;
    for (const auto& p : parts) len += p.indptr_[i + 1] - p.indptr_[i];
    r.indptr_[i + 1] = r.indptr_[i] + len;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    std::size_t pos = r.indptr_[i], off = 0;
    for (const auto& p : parts) {
      for (std::size_t k = p.indptr_[i]; k < p.indptr_[i + 1]; ++k, ++pos) {
        r.indices_[pos] = off + p.indices_[k];
        r.values_[pos] = p.values_[k];
      }
      off += p.cols();
    }
  }
  return r;
}

CsrMatrix CsrMatrix::Abs() const {
  CsrMatrix r = *this;
  for (double& v : r.values_) v = std::abs(v);
  return r;
}

CsrMatrix CsrMatrix::ScaleRows(const Vec& w) const {
  EK_CHECK_EQ(w.size(), rows_);
  CsrMatrix r = *this;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k)
      r.values_[k] *= w[i];
  return r;
}

double CsrMatrix::MaxColNormL1() const {
  Vec col(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k)
      col[indices_[k]] += std::abs(values_[k]);
  return col.empty() ? 0.0 : *std::max_element(col.begin(), col.end());
}

DenseMatrix CsrMatrix::ToDense() const {
  DenseMatrix d(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k)
      d.At(i, indices_[k]) += values_[k];
  return d;
}

}  // namespace ektelo
