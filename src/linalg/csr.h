// Compressed-sparse-row matrix.
//
// EKTELO's "sparse" representation (Sec. 7.2): partition matrices, range
// query strategies and measurement unions are naturally sparse; this class
// provides the primitive methods (mat-vec, transposed mat-vec, transpose,
// mat-mat, abs, sensitivity) on CSR storage.
#ifndef EKTELO_LINALG_CSR_H_
#define EKTELO_LINALG_CSR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/dense.h"
#include "linalg/vec.h"
#include "util/aligned.h"

namespace ektelo {

struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0), indptr_{0} {}
  CsrMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), indptr_(rows + 1, 0) {}

  /// Build from (row, col, value) triplets; duplicates are summed.
  static CsrMatrix FromTriplets(std::size_t rows, std::size_t cols,
                                std::vector<Triplet> triplets);

  /// Build from entries grouped by ascending column with ascending rows
  /// within each column — the natural output order of blocked column-panel
  /// evaluation.  Assembles in O(nnz) by counting sort on the row index
  /// (no comparison sort); entries must be unique (no duplicate summing).
  static CsrMatrix FromColumnStream(std::size_t rows, std::size_t cols,
                                    const std::vector<Triplet>& entries);

  static CsrMatrix Identity(std::size_t n);
  static CsrMatrix FromDense(const DenseMatrix& d, double drop_tol = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& indptr() const { return indptr_; }
  const std::vector<std::size_t>& indices() const { return indices_; }
  // Values are 64-byte-aligned/cacheline-padded (util/aligned.h), like
  // every buffer the vectorized kernel layer touches.
  const AlignedVec& values() const { return values_; }
  AlignedVec& values() { return values_; }

  Vec Matvec(const Vec& x) const;
  void Matvec(const double* x, double* y) const;
  Vec RmatVec(const Vec& x) const;
  void RmatVec(const double* x, double* y) const;

  CsrMatrix Transpose() const;
  CsrMatrix Matmul(const CsrMatrix& other) const;

  /// Exact update (flop) count of Matmul(other): the sum over this
  /// matrix's entries of the matching other-row length.  An upper bound
  /// on the product's nnz; Matmul uses it to reserve, and the rewrite
  /// engine to budget eager sparse fusion.
  std::size_t MatmulUpdateBound(const CsrMatrix& other) const;

  /// Kronecker product (this ⊗ other); nnz = nnz(this) * nnz(other).
  CsrMatrix Kronecker(const CsrMatrix& other) const;

  /// Stack other below this (column counts must match).
  CsrMatrix VStack(const CsrMatrix& other) const;

  /// Multi-way vertical concatenation in one pass: precomputes the total
  /// nnz and row pointers, then copies each part's arrays exactly once —
  /// O(total nnz), versus the quadratic re-copying of folding VStack
  /// pairwise.  All parts must share a column count; `parts` must be
  /// non-empty.
  static CsrMatrix VStackMany(const std::vector<CsrMatrix>& parts);

  /// Multi-way horizontal concatenation [A | B | ...] in one pass: row i
  /// of the result is row i of every part, column-shifted; nnz and row
  /// pointers are precomputed so each entry is written exactly once.  All
  /// parts must share a row count; `parts` must be non-empty.
  static CsrMatrix HStackMany(const std::vector<CsrMatrix>& parts);

  CsrMatrix Abs() const;

  /// Scale row i by w[i].
  CsrMatrix ScaleRows(const Vec& w) const;

  double MaxColNormL1() const;

  DenseMatrix ToDense() const;

 private:
  std::size_t rows_, cols_;
  std::vector<std::size_t> indptr_;
  std::vector<std::size_t> indices_;
  AlignedVec values_;
};

}  // namespace ektelo

#endif  // EKTELO_LINALG_CSR_H_
