#include "matrix/range_ops.h"

#include <algorithm>

#include "util/check.h"

namespace ektelo {

RangeSetOp::RangeSetOp(std::vector<Interval> ranges, std::size_t n)
    : LinOp(ranges.size(), n), ranges_(std::move(ranges)) {
  for (const auto& r : ranges_) {
    EK_CHECK_LE(r.lo, r.hi);
    EK_CHECK_LT(r.hi, n);
  }
  set_nonneg_binary(true);
}

void RangeSetOp::ApplyRaw(const double* x, double* y) const {
  // Prefix sums: range sum = pre[hi+1] - pre[lo].
  Vec pre(cols() + 1, 0.0);
  for (std::size_t i = 0; i < cols(); ++i) pre[i + 1] = pre[i] + x[i];
  for (std::size_t q = 0; q < ranges_.size(); ++q)
    y[q] = pre[ranges_[q].hi + 1] - pre[ranges_[q].lo];
}

void RangeSetOp::ApplyTRaw(const double* x, double* y) const {
  // Difference array: add x_q on [lo, hi], then prefix-sum.
  std::fill(y, y + cols(), 0.0);
  Vec diff(cols() + 1, 0.0);
  for (std::size_t q = 0; q < ranges_.size(); ++q) {
    diff[ranges_[q].lo] += x[q];
    diff[ranges_[q].hi + 1] -= x[q];
  }
  double run = 0.0;
  for (std::size_t i = 0; i < cols(); ++i) {
    run += diff[i];
    y[i] = run;
  }
}

void RangeSetOp::ApplyBlockRaw(const double* x, double* y,
                               std::size_t k) const {
  // One prefix-sum pass per column, then the interval list is walked once
  // with all k columns answered per interval.
  const std::size_t n = cols(), m = rows();
  Vec pre((n + 1) * k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    const double* xc = x + c * n;
    double* pc = pre.data() + c * (n + 1);
    for (std::size_t i = 0; i < n; ++i) pc[i + 1] = pc[i] + xc[i];
  }
  for (std::size_t q = 0; q < m; ++q) {
    const std::size_t lo = ranges_[q].lo, hi = ranges_[q].hi;
    for (std::size_t c = 0; c < k; ++c) {
      const double* pc = pre.data() + c * (n + 1);
      y[c * m + q] = pc[hi + 1] - pc[lo];
    }
  }
}

void RangeSetOp::ApplyTBlockRaw(const double* x, double* y,
                                std::size_t k) const {
  const std::size_t n = cols(), m = rows();
  Vec diff((n + 1) * k, 0.0);
  for (std::size_t q = 0; q < m; ++q) {
    const std::size_t lo = ranges_[q].lo, hi = ranges_[q].hi;
    for (std::size_t c = 0; c < k; ++c) {
      diff[c * (n + 1) + lo] += x[c * m + q];
      diff[c * (n + 1) + hi + 1] -= x[c * m + q];
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    const double* dc = diff.data() + c * (n + 1);
    double* yc = y + c * n;
    double run = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      run += dc[i];
      yc[i] = run;
    }
  }
}

CsrMatrix RangeSetOp::MaterializeSparse() const {
  std::size_t nnz = 0;
  for (const auto& r : ranges_) nnz += r.hi - r.lo + 1;
  std::vector<Triplet> t;
  t.reserve(nnz);
  for (std::size_t q = 0; q < ranges_.size(); ++q)
    for (std::size_t c = ranges_[q].lo; c <= ranges_[q].hi; ++c)
      t.push_back({q, c, 1.0});
  return CsrMatrix::FromTriplets(rows(), cols(), std::move(t));
}

double RangeSetOp::ComputeSensitivityL1() const {
  // Coverage count per cell via a difference array.
  Vec diff(cols() + 1, 0.0);
  for (const auto& r : ranges_) {
    diff[r.lo] += 1.0;
    diff[r.hi + 1] -= 1.0;
  }
  double run = 0.0, best = 0.0;
  for (std::size_t i = 0; i < cols(); ++i) {
    run += diff[i];
    best = std::max(best, run);
  }
  return best;
}

std::string RangeSetOp::DebugName() const {
  return "RangeSet(m=" + std::to_string(rows()) + ",n=" +
         std::to_string(cols()) + ")";
}

RectangleSetOp::RectangleSetOp(std::vector<Rectangle> rects, std::size_t nx,
                               std::size_t ny)
    : LinOp(rects.size(), nx * ny), rects_(std::move(rects)),
      nx_(nx), ny_(ny) {
  for (const auto& r : rects_) {
    EK_CHECK_LE(r.x_lo, r.x_hi);
    EK_CHECK_LE(r.y_lo, r.y_hi);
    EK_CHECK_LT(r.x_hi, nx_);
    EK_CHECK_LT(r.y_hi, ny_);
  }
  set_nonneg_binary(true);
}

void RectangleSetOp::ApplyRaw(const double* x, double* y) const {
  // 2D summed-area table, (nx+1) x (ny+1).
  Vec sat((nx_ + 1) * (ny_ + 1), 0.0);
  const std::size_t w = ny_ + 1;
  for (std::size_t i = 0; i < nx_; ++i)
    for (std::size_t j = 0; j < ny_; ++j)
      sat[(i + 1) * w + (j + 1)] = x[i * ny_ + j] + sat[i * w + (j + 1)] +
                                   sat[(i + 1) * w + j] - sat[i * w + j];
  for (std::size_t q = 0; q < rects_.size(); ++q) {
    const auto& r = rects_[q];
    y[q] = sat[(r.x_hi + 1) * w + (r.y_hi + 1)] -
           sat[r.x_lo * w + (r.y_hi + 1)] -
           sat[(r.x_hi + 1) * w + r.y_lo] + sat[r.x_lo * w + r.y_lo];
  }
}

void RectangleSetOp::ApplyTRaw(const double* x, double* y) const {
  // 2D difference array.
  Vec diff((nx_ + 1) * (ny_ + 1), 0.0);
  const std::size_t w = ny_ + 1;
  for (std::size_t q = 0; q < rects_.size(); ++q) {
    const auto& r = rects_[q];
    diff[r.x_lo * w + r.y_lo] += x[q];
    diff[r.x_lo * w + (r.y_hi + 1)] -= x[q];
    diff[(r.x_hi + 1) * w + r.y_lo] -= x[q];
    diff[(r.x_hi + 1) * w + (r.y_hi + 1)] += x[q];
  }
  // Two prefix-sum passes.
  for (std::size_t i = 0; i < nx_; ++i) {
    double run = 0.0;
    for (std::size_t j = 0; j < ny_; ++j) {
      run += diff[i * w + j];
      double above = (i > 0) ? y[(i - 1) * ny_ + j] : 0.0;
      y[i * ny_ + j] = run + above;
    }
  }
}

void RectangleSetOp::ApplyBlockRaw(const double* x, double* y,
                                   std::size_t k) const {
  // One summed-area table per column, then the rectangle list is walked
  // once with all k columns answered per rectangle.
  const std::size_t w = ny_ + 1;
  const std::size_t sat_sz = (nx_ + 1) * w;
  const std::size_t n = cols(), m = rows();
  Vec sat(sat_sz * k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    const double* xc = x + c * n;
    double* sc = sat.data() + c * sat_sz;
    for (std::size_t i = 0; i < nx_; ++i)
      for (std::size_t j = 0; j < ny_; ++j)
        sc[(i + 1) * w + (j + 1)] = xc[i * ny_ + j] + sc[i * w + (j + 1)] +
                                    sc[(i + 1) * w + j] - sc[i * w + j];
  }
  for (std::size_t q = 0; q < m; ++q) {
    const auto& r = rects_[q];
    for (std::size_t c = 0; c < k; ++c) {
      const double* sc = sat.data() + c * sat_sz;
      y[c * m + q] = sc[(r.x_hi + 1) * w + (r.y_hi + 1)] -
                     sc[r.x_lo * w + (r.y_hi + 1)] -
                     sc[(r.x_hi + 1) * w + r.y_lo] + sc[r.x_lo * w + r.y_lo];
    }
  }
}

void RectangleSetOp::ApplyTBlockRaw(const double* x, double* y,
                                    std::size_t k) const {
  const std::size_t w = ny_ + 1;
  const std::size_t diff_sz = (nx_ + 1) * w;
  const std::size_t n = cols(), m = rows();
  Vec diff(diff_sz * k, 0.0);
  for (std::size_t q = 0; q < m; ++q) {
    const auto& r = rects_[q];
    for (std::size_t c = 0; c < k; ++c) {
      double* dc = diff.data() + c * diff_sz;
      const double v = x[c * m + q];
      dc[r.x_lo * w + r.y_lo] += v;
      dc[r.x_lo * w + (r.y_hi + 1)] -= v;
      dc[(r.x_hi + 1) * w + r.y_lo] -= v;
      dc[(r.x_hi + 1) * w + (r.y_hi + 1)] += v;
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    const double* dc = diff.data() + c * diff_sz;
    double* yc = y + c * n;
    for (std::size_t i = 0; i < nx_; ++i) {
      double run = 0.0;
      for (std::size_t j = 0; j < ny_; ++j) {
        run += dc[i * w + j];
        double above = (i > 0) ? yc[(i - 1) * ny_ + j] : 0.0;
        yc[i * ny_ + j] = run + above;
      }
    }
  }
}

CsrMatrix RectangleSetOp::MaterializeSparse() const {
  std::size_t nnz = 0;
  for (const auto& r : rects_)
    nnz += (r.x_hi - r.x_lo + 1) * (r.y_hi - r.y_lo + 1);
  std::vector<Triplet> t;
  t.reserve(nnz);
  for (std::size_t q = 0; q < rects_.size(); ++q) {
    const auto& r = rects_[q];
    for (std::size_t i = r.x_lo; i <= r.x_hi; ++i)
      for (std::size_t j = r.y_lo; j <= r.y_hi; ++j)
        t.push_back({q, i * ny_ + j, 1.0});
  }
  return CsrMatrix::FromTriplets(rows(), cols(), std::move(t));
}

double RectangleSetOp::ComputeSensitivityL1() const {
  Vec diff((nx_ + 1) * (ny_ + 1), 0.0);
  const std::size_t w = ny_ + 1;
  for (const auto& r : rects_) {
    diff[r.x_lo * w + r.y_lo] += 1.0;
    diff[r.x_lo * w + (r.y_hi + 1)] -= 1.0;
    diff[(r.x_hi + 1) * w + r.y_lo] -= 1.0;
    diff[(r.x_hi + 1) * w + (r.y_hi + 1)] += 1.0;
  }
  Vec cover(nx_ * ny_, 0.0);
  double best = 0.0;
  for (std::size_t i = 0; i < nx_; ++i) {
    double run = 0.0;
    for (std::size_t j = 0; j < ny_; ++j) {
      run += diff[i * w + j];
      double above = (i > 0) ? cover[(i - 1) * ny_ + j] : 0.0;
      cover[i * ny_ + j] = run + above;
      best = std::max(best, cover[i * ny_ + j]);
    }
  }
  return best;
}

std::string RectangleSetOp::DebugName() const {
  return "RectangleSet(m=" + std::to_string(rows()) + "," +
         std::to_string(nx_) + "x" + std::to_string(ny_) + ")";
}

LinOpPtr MakeRangeSetOp(std::vector<Interval> ranges, std::size_t n) {
  return std::make_shared<RangeSetOp>(std::move(ranges), n);
}

LinOpPtr MakeRectangleSetOp(std::vector<Rectangle> rects, std::size_t nx,
                            std::size_t ny) {
  return std::make_shared<RectangleSetOp>(std::move(rects), nx, ny);
}

}  // namespace ektelo
