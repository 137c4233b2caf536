#include "ops/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"
#include "util/check.h"

namespace ektelo {

std::size_t Hierarchy::TotalNodes() const {
  std::size_t total = 0;
  for (const auto& lvl : levels) total += lvl.size();
  return total;
}

Hierarchy BuildHierarchy(std::size_t n, std::size_t branch) {
  EK_CHECK_GT(n, 0u);
  EK_CHECK_GE(branch, 2u);
  Hierarchy h;
  h.n = n;
  h.branch = branch;
  h.levels.push_back({{0, n}});
  while (true) {
    const auto& cur = h.levels.back();
    std::vector<HierNode> next;
    std::vector<std::size_t> starts(cur.size() + 1, 0);
    bool any_split = false;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      starts[i] = next.size();
      const std::size_t len = cur[i].hi - cur[i].lo;
      if (len > 1) {
        any_split = true;
        // Split into up to `branch` near-equal parts.
        const std::size_t parts = std::min(branch, len);
        std::size_t pos = cur[i].lo;
        for (std::size_t p = 0; p < parts; ++p) {
          std::size_t sz = len / parts + (p < len % parts ? 1 : 0);
          next.push_back({pos, pos + sz});
          pos += sz;
        }
        EK_CHECK_EQ(pos, cur[i].hi);
      }
    }
    starts[cur.size()] = next.size();
    h.child_start.push_back(std::move(starts));
    if (!any_split) {
      h.child_start.pop_back();  // last level has no children
      break;
    }
    h.levels.push_back(std::move(next));
  }
  return h;
}

LinOpPtr HierarchyOp(const Hierarchy& h) {
  std::vector<Interval> ranges;
  ranges.reserve(h.TotalNodes());
  for (const auto& lvl : h.levels)
    for (const auto& node : lvl) ranges.push_back({node.lo, node.hi - 1});
  return MakeRangeSetOp(std::move(ranges), h.n);
}

std::size_t HbBranchingFactor(std::size_t n) {
  // Qardaji et al.: choose b minimizing (b-1) * h^3 with h = ceil(log_b n).
  std::size_t best_b = 2;
  double best_cost = 1e300;
  for (std::size_t b = 2; b <= 16; ++b) {
    double h = std::ceil(std::log(double(std::max<std::size_t>(n, 2))) /
                         std::log(double(b)));
    h = std::max(h, 1.0);
    double cost = double(b - 1) * h * h * h;
    if (cost < best_cost) {
      best_cost = cost;
      best_b = b;
    }
  }
  return best_b;
}

namespace {
constexpr uint32_t kNone = UINT32_MAX;
}  // namespace

std::optional<LaminarForest> LaminarForest::Build(IndicatorRows rows,
                                                  std::size_t n) {
  const std::size_t m = rows.rows();
  if (n > kMaxCells || m > kMaxCells) return std::nullopt;
  LaminarForest f;
  f.row_node_.assign(m, kNone);
  f.owner_.assign(n, kNone);

  // Rows that constrain nothing (empty support or zero value) drop out.
  // The rest are ordered largest support first (ties by row index, a
  // counting sort on size), so every parent precedes its children.
  std::vector<uint32_t> size(m, 0), bucket(n + 2, 0);
  for (std::size_t r = 0; r < m; ++r) {
    std::size_t sz = 0;
    for (std::size_t k = rows.row_start[r]; k < rows.row_start[r + 1]; ++k) {
      EK_CHECK_LE(rows.runs[k].first, rows.runs[k].second);
      EK_CHECK_LE(rows.runs[k].second, n);
      sz += rows.runs[k].second - rows.runs[k].first;
    }
    if (sz > n) return std::nullopt;  // overlapping runs: not a cell set
    size[r] = static_cast<uint32_t>(sz);
    if (sz > 0 && rows.coef[r] != 0.0) ++bucket[n - sz + 1];
  }
  for (std::size_t s = 1; s < bucket.size(); ++s) bucket[s] += bucket[s - 1];
  std::vector<uint32_t> order(bucket.back());
  for (std::size_t r = 0; r < m; ++r)
    if (size[r] > 0 && rows.coef[r] != 0.0)
      order[bucket[n - size[r]]++] = static_cast<uint32_t>(r);

  // owner[c]: the smallest node built so far that contains cell c.  A new
  // support is laminar against every larger one iff all its cells share
  // one owner; it is a duplicate iff that owner has its size.
  std::vector<uint32_t> node_size;
  node_size.reserve(order.size());
  f.parent_.reserve(order.size());
  f.uncovered_.reserve(order.size());
  f.prec_.reserve(order.size());
  for (uint32_t r : order) {
    const std::size_t lo = rows.row_start[r], hi = rows.row_start[r + 1];
    const uint32_t p = f.owner_[rows.runs[lo].first];
    const bool duplicate = p != kNone && node_size[p] == size[r];
    const uint32_t v = duplicate ? p : static_cast<uint32_t>(node_size.size());
    for (std::size_t k = lo; k < hi; ++k)
      for (uint32_t c = rows.runs[k].first; c < rows.runs[k].second; ++c) {
        if (f.owner_[c] != p) return std::nullopt;
        f.owner_[c] = v;
      }
    f.row_node_[r] = v;
    const double a = rows.coef[r];
    if (duplicate) {
      f.prec_[p] += a * a;
      continue;
    }
    node_size.push_back(size[r]);
    f.parent_.push_back(p);
    f.uncovered_.push_back(size[r]);
    f.prec_.push_back(a * a);
    if (p != kNone) f.uncovered_[p] -= size[r];
  }
  f.coef_ = std::move(rows.coef);

  // The variances do not depend on b: var[v] is the variance of node v's
  // subtree estimate (in units where a row's variance is 1 / coef^2).  A
  // node with uncovered cells learns nothing from its children, since
  // those cells absorb any residual.
  const std::size_t count = f.parent_.size();
  Vec var(count), child_var(count, 0.0);
  f.w_own_.assign(count, 1.0);
  for (std::size_t v = count; v-- > 0;) {
    const double own_var = 1.0 / f.prec_[v];
    if (f.uncovered_[v] > 0) {
      var[v] = own_var;
    } else {
      f.w_own_[v] = child_var[v] / (own_var + child_var[v]);
      var[v] = own_var * child_var[v] / (own_var + child_var[v]);
    }
    if (f.parent_[v] != kNone) child_var[f.parent_[v]] += var[v];
  }
  // A fully covered node hands its consistency surplus to its children in
  // proportion to their variances (the exact least-squares adjustment).
  f.share_.assign(count, 0.0);
  for (std::size_t v = 0; v < count; ++v) {
    const uint32_t p = f.parent_[v];
    if (p != kNone && f.uncovered_[p] == 0)
      f.share_[v] = var[v] / child_var[p];
  }
  return f;
}

Vec LaminarForest::Solve(const Vec& b) const {
  EK_CHECK_EQ(b.size(), row_node_.size());
  const std::size_t count = parent_.size();
  // est[v]: sum of coef * b over the node's rows, then (bottom-up) the
  // best estimate of its total from its subtree.  down[v]: the sum of its
  // children's estimates, then (top-down) what it passes down: its
  // surplus to its children, or the value of each uncovered cell.
  Vec est(count, 0.0), down(count, 0.0);
  for (std::size_t r = 0; r < b.size(); ++r)
    if (row_node_[r] != kNone) est[row_node_[r]] += coef_[r] * b[r];
  for (std::size_t v = count; v-- > 0;) {
    const double own = est[v] / prec_[v];
    est[v] = uncovered_[v] > 0
                 ? own
                 : w_own_[v] * own + (1.0 - w_own_[v]) * down[v];
    if (parent_[v] != kNone) down[parent_[v]] += est[v];
  }
  for (std::size_t v = 0; v < count; ++v) {
    double total = est[v];
    if (share_[v] != 0.0) total += share_[v] * down[parent_[v]];
    const double surplus = total - down[v];
    down[v] = uncovered_[v] > 0
                  ? surplus / static_cast<double>(uncovered_[v])
                  : surplus;
  }
  Vec x(owner_.size(), 0.0);
  for (std::size_t c = 0; c < owner_.size(); ++c)
    if (owner_[c] != kNone) x[c] = down[owner_[c]];
  return x;
}

Vec TreeBasedLeastSquares(const Hierarchy& h, const Vec& y) {
  EK_CHECK_EQ(y.size(), h.TotalNodes());
  IndicatorRows rows;
  rows.Reserve(y.size(), y.size());
  for (const auto& level : h.levels)
    for (const HierNode& node : level) {
      rows.AddRun(node.lo, node.hi);
      rows.EndRow(1.0);
    }
  std::optional<LaminarForest> forest =
      LaminarForest::Build(std::move(rows), h.n);
  EK_CHECK(forest.has_value());
  return forest->Solve(y);
}

}  // namespace ektelo
