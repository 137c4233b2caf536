// Implicit operators for sets of interval-sum queries.
//
// A set of m 1D range queries admits an O(m) implicit representation with
// O(n + m) mat-vecs: Apply uses a prefix-sum of x, ApplyT a difference
// array (Sec. 7.5's range-query construction, strengthened: the paper
// represents ranges as Product(Sparse, Prefix); storing the (lo, hi)
// pairs directly gives the same complexity plus an O(nnz) direct sparse
// materialization, which the Product form cannot offer).  2D rectangle
// sets get the same treatment via 2D prefix sums.
//
// These back every hierarchical / grid / random-range strategy, so the
// "sparse" matrix mode of the scalability experiments materializes them
// in O(total covered cells), exactly like the paper's SciPy baselines.
#ifndef EKTELO_MATRIX_RANGE_OPS_H_
#define EKTELO_MATRIX_RANGE_OPS_H_

#include <cstddef>
#include <vector>

#include "matrix/linop.h"

namespace ektelo {

/// One inclusive 1D interval [lo, hi].
struct Interval {
  std::size_t lo;
  std::size_t hi;
};

class RangeSetOp final : public LinOp {
 public:
  RangeSetOp(std::vector<Interval> ranges, std::size_t n);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  const std::vector<Interval>& ranges() const { return ranges_; }

 protected:
  double ComputeSensitivityL1() const override;

 private:
  std::vector<Interval> ranges_;
};

/// One inclusive 2D rectangle [x_lo, x_hi] x [y_lo, y_hi].
struct Rectangle {
  std::size_t x_lo, x_hi, y_lo, y_hi;
};

class RectangleSetOp final : public LinOp {
 public:
  RectangleSetOp(std::vector<Rectangle> rects, std::size_t nx,
                 std::size_t ny);
  void ApplyRaw(const double* x, double* y) const override;
  void ApplyTRaw(const double* x, double* y) const override;
  void ApplyBlockRaw(const double* x, double* y, std::size_t k) const override;
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override;
  CsrMatrix MaterializeSparse() const override;
  std::string DebugName() const override;
  const std::vector<Rectangle>& rects() const { return rects_; }
  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }

 protected:
  double ComputeSensitivityL1() const override;

 private:
  std::vector<Rectangle> rects_;
  std::size_t nx_, ny_;
};

LinOpPtr MakeRangeSetOp(std::vector<Interval> ranges, std::size_t n);
LinOpPtr MakeRectangleSetOp(std::vector<Rectangle> rects, std::size_t nx,
                            std::size_t ny);

}  // namespace ektelo

#endif  // EKTELO_MATRIX_RANGE_OPS_H_
