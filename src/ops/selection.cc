#include "ops/selection.h"

#include <algorithm>
#include <cmath>

#include "linalg/haar.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"
#include "util/check.h"

namespace ektelo {

LinOpPtr IdentitySelect(std::size_t n) { return MakeIdentityOp(n); }
LinOpPtr TotalSelect(std::size_t n) { return MakeTotalOp(n); }

LinOpPtr H2Select(std::size_t n) {
  return HierarchyOp(BuildHierarchy(n, 2));
}

LinOpPtr HbSelect(std::size_t n) {
  return HierarchyOp(BuildHierarchy(n, HbBranchingFactor(n)));
}

LinOpPtr PriveletSelect(std::size_t n) {
  EK_CHECK(IsPowerOfTwo(n));
  return MakeWaveletOp(n);
}

namespace {

using NodeStack = std::vector<std::pair<std::size_t, std::size_t>>;

/// Calls take(level, i) on each node of q's canonical cover, in DFS order.
/// `stack` is scratch space, reused across calls.
template <typename Take>
void VisitCanonicalCover(const Hierarchy& h, const RangeQuery& q,
                         NodeStack* stack, Take&& take) {
  // Iterative DFS from the root; take a node when fully contained.
  stack->assign(1, {0, 0});
  while (!stack->empty()) {
    auto [level, i] = stack->back();
    stack->pop_back();
    const HierNode& node = h.levels[level][i];
    if (node.hi <= q.lo || node.lo > q.hi) continue;  // disjoint
    if (q.lo <= node.lo && node.hi - 1 <= q.hi) {     // contained
      take(level, i);
      continue;
    }
    const bool has_children =
        level + 1 < h.levels.size() &&
        h.child_start[level][i + 1] > h.child_start[level][i];
    EK_CHECK(has_children);  // a unit node is always contained or disjoint
    for (std::size_t c = h.child_start[level][i];
         c < h.child_start[level][i + 1]; ++c)
      stack->push_back({level + 1, c});
  }
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> CanonicalCover(
    const Hierarchy& h, const RangeQuery& q) {
  std::vector<std::pair<std::size_t, std::size_t>> cover;
  NodeStack stack;
  VisitCanonicalCover(h, q, &stack, [&](std::size_t level, std::size_t i) {
    cover.push_back({level, i});
  });
  return cover;
}

LinOpPtr GreedyHSelect(const std::vector<RangeQuery>& workload,
                       std::size_t n) {
  Hierarchy h = BuildHierarchy(n, 2);
  // Count how many workload queries use each node.
  std::vector<std::vector<double>> usage(h.levels.size());
  for (std::size_t l = 0; l < h.levels.size(); ++l)
    usage[l].assign(h.levels[l].size(), 0.0);
  NodeStack stack;
  for (const auto& q : workload)
    VisitCanonicalCover(h, q, &stack, [&](std::size_t level, std::size_t i) {
      usage[level][i] += 1.0;
    });

  // Per-level weights ~ (1 + mean usage)^(1/3), renormalized so the total
  // over levels (= the L1 column norm of the weighted hierarchy) equals
  // the number of levels, matching plain H2's sensitivity.
  const std::size_t num_levels = h.levels.size();
  Vec lambda(num_levels);
  double lambda_sum = 0.0;
  for (std::size_t l = 0; l < num_levels; ++l) {
    double mean = 0.0;
    for (double u : usage[l]) mean += u;
    mean /= static_cast<double>(usage[l].size());
    lambda[l] = std::cbrt(1.0 + mean);
    lambda_sum += lambda[l];
  }
  const double norm = static_cast<double>(num_levels) / lambda_sum;
  Vec row_weights;
  row_weights.reserve(h.TotalNodes());
  for (std::size_t l = 0; l < num_levels; ++l)
    row_weights.insert(row_weights.end(), h.levels[l].size(),
                       lambda[l] * norm);
  return MakeRowWeight(HierarchyOp(h), std::move(row_weights));
}

LinOpPtr QuadtreeSelect(std::size_t nx, std::size_t ny) {
  using Rect = Rectangle;
  // BFS subdivision into quadrants down to unit cells: `rects` is its own
  // queue, each node's children appended after the whole level above.
  // Every split has at least two parts, so there are under 2 nx ny nodes.
  std::vector<Rect> rects;
  rects.reserve(2 * nx * ny);
  rects.push_back({0, nx - 1, 0, ny - 1});
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const Rect r = rects[i];
    const std::size_t w = r.x_hi - r.x_lo + 1;
    const std::size_t h = r.y_hi - r.y_lo + 1;
    if (w == 1 && h == 1) continue;
    const std::size_t xm = r.x_lo + (w - 1) / 2;  // split points
    const std::size_t ym = r.y_lo + (h - 1) / 2;
    if (w > 1 && h > 1) {
      rects.push_back({r.x_lo, xm, r.y_lo, ym});
      rects.push_back({xm + 1, r.x_hi, r.y_lo, ym});
      rects.push_back({r.x_lo, xm, ym + 1, r.y_hi});
      rects.push_back({xm + 1, r.x_hi, ym + 1, r.y_hi});
    } else if (w > 1) {
      rects.push_back({r.x_lo, xm, r.y_lo, r.y_hi});
      rects.push_back({xm + 1, r.x_hi, r.y_lo, r.y_hi});
    } else {
      rects.push_back({r.x_lo, r.x_hi, r.y_lo, ym});
      rects.push_back({r.x_lo, r.x_hi, ym + 1, r.y_hi});
    }
  }
  return MakeRectangleSetOp(std::move(rects), nx, ny);
}

LinOpPtr GridCellsSelect(std::size_t nx, std::size_t ny, std::size_t gx,
                         std::size_t gy) {
  EK_CHECK_GE(gx, 1u);
  EK_CHECK_GE(gy, 1u);
  gx = std::min(gx, nx);
  gy = std::min(gy, ny);
  std::vector<Rectangle> rects;
  rects.reserve(gx * gy);
  for (std::size_t a = 0; a < gx; ++a) {
    const std::size_t x_lo = GridBlockStart(a, nx, gx);
    const std::size_t x_hi = GridBlockStart(a + 1, nx, gx) - 1;
    for (std::size_t b = 0; b < gy; ++b) {
      const std::size_t y_lo = GridBlockStart(b, ny, gy);
      const std::size_t y_hi = GridBlockStart(b + 1, ny, gy) - 1;
      rects.push_back({x_lo, x_hi, y_lo, y_hi});
    }
  }
  return MakeRectangleSetOp(std::move(rects), nx, ny);
}

std::size_t UniformGridSide(double n_records, double eps, std::size_t n_side,
                            double c) {
  double m = std::sqrt(std::max(n_records, 0.0) * eps / c);
  std::size_t side = static_cast<std::size_t>(std::llround(m));
  side = std::max<std::size_t>(side, 1);
  side = std::min(side, n_side);
  return side;
}

LinOpPtr StripeKronSelect(const std::vector<std::size_t>& dims,
                          std::size_t stripe_dim) {
  EK_CHECK_LT(stripe_dim, dims.size());
  std::vector<LinOpPtr> factors;
  factors.reserve(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) {
    factors.push_back(d == stripe_dim ? HbSelect(dims[d])
                                      : MakeIdentityOp(dims[d]));
  }
  return MakeKronecker(std::move(factors));
}

}  // namespace ektelo
