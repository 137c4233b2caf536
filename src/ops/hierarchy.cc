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

std::optional<LaminarTopology> LaminarTopology::Build(IndicatorRows rows,
                                                      std::size_t n) {
  const std::size_t m = rows.rows();
  if (n > kMaxCells || m > kMaxCells) return std::nullopt;
  LaminarTopology t;
  t.row_node_.assign(m, kNone);
  t.owner_.assign(n, kNone);

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
  t.parent_.reserve(order.size());
  t.uncovered_.reserve(order.size());
  for (uint32_t r : order) {
    const std::size_t lo = rows.row_start[r], hi = rows.row_start[r + 1];
    const uint32_t p = t.owner_[rows.runs[lo].first];
    const bool duplicate = p != kNone && node_size[p] == size[r];
    const uint32_t v = duplicate ? p : static_cast<uint32_t>(node_size.size());
    for (std::size_t k = lo; k < hi; ++k)
      for (uint32_t c = rows.runs[k].first; c < rows.runs[k].second; ++c) {
        if (t.owner_[c] != p) return std::nullopt;
        t.owner_[c] = v;
      }
    t.row_node_[r] = v;
    if (duplicate) continue;
    node_size.push_back(size[r]);
    t.parent_.push_back(p);
    t.uncovered_.push_back(size[r]);
    if (p != kNone) t.uncovered_[p] -= size[r];
  }
  t.coef_ = std::move(rows.coef);
  return t;
}

std::optional<LaminarForest> LaminarForest::Build(IndicatorRows rows,
                                                  std::size_t n) {
  std::optional<LaminarTopology> t =
      LaminarTopology::Build(std::move(rows), n);
  if (!t.has_value()) return std::nullopt;
  return Weigh(std::make_shared<const LaminarTopology>(*std::move(t)), 1.0);
}

std::optional<LaminarForest> LaminarForest::Weigh(
    std::shared_ptr<const LaminarTopology> topology, double scale) {
  const LaminarTopology& t = *topology;
  // A non-finite scale turns zero rows into NaN ones, which Build keeps.
  if (!std::isfinite(scale)) return std::nullopt;
  LaminarForest f;
  const std::size_t count = t.parent_.size();
  // prec[v]: the sum of coef^2 over the node's rows.  A node's rows share
  // one size, so Build's order visits them by row index, as this loop does.
  f.prec_.assign(count, 0.0);
  for (std::size_t r = 0; r < t.row_node_.size(); ++r) {
    if (t.row_node_[r] == kNone) continue;
    const double a = t.coef_[r] * scale;
    if (a == 0.0) return std::nullopt;  // underflow: Build drops the row
    f.prec_[t.row_node_[r]] += a * a;
  }

  // The variances do not depend on b: var[v] is the variance of node v's
  // subtree estimate (in units where a row's variance is 1 / coef^2).  A
  // node with uncovered cells learns nothing from its children, since
  // those cells absorb any residual.
  Vec var(count), child_var(count, 0.0);
  f.w_own_.assign(count, 1.0);
  for (std::size_t v = count; v-- > 0;) {
    const double own_var = 1.0 / f.prec_[v];
    if (t.uncovered_[v] > 0) {
      var[v] = own_var;
    } else {
      f.w_own_[v] = child_var[v] / (own_var + child_var[v]);
      var[v] = own_var * child_var[v] / (own_var + child_var[v]);
    }
    if (t.parent_[v] != kNone) child_var[t.parent_[v]] += var[v];
  }
  // A fully covered node hands its consistency surplus to its children in
  // proportion to their variances (the exact least-squares adjustment).
  f.share_.assign(count, 0.0);
  for (std::size_t v = 0; v < count; ++v) {
    const uint32_t p = t.parent_[v];
    if (p != kNone && t.uncovered_[p] == 0)
      f.share_[v] = var[v] / child_var[p];
  }
  f.topo_ = std::move(topology);
  f.scale_ = scale;
  return f;
}

Vec LaminarForest::Solve(const Vec& b) const {
  const LaminarTopology& t = *topo_;
  EK_CHECK_EQ(b.size(), t.row_node_.size());
  const std::size_t count = t.parent_.size();
  // est[v]: sum of coef * b over the node's rows, then (bottom-up) the
  // best estimate of its total from its subtree.  down[v]: the sum of its
  // children's estimates, then (top-down) what it passes down: its
  // surplus to its children, or the value of each uncovered cell.
  Vec est(count, 0.0), down(count, 0.0);
  for (std::size_t r = 0; r < b.size(); ++r)
    if (t.row_node_[r] != kNone)
      est[t.row_node_[r]] += t.coef_[r] * scale_ * b[r];
  for (std::size_t v = count; v-- > 0;) {
    const double own = est[v] / prec_[v];
    est[v] = t.uncovered_[v] > 0
                 ? own
                 : w_own_[v] * own + (1.0 - w_own_[v]) * down[v];
    if (t.parent_[v] != kNone) down[t.parent_[v]] += est[v];
  }
  for (std::size_t v = 0; v < count; ++v) {
    double total = est[v];
    if (share_[v] != 0.0) total += share_[v] * down[t.parent_[v]];
    const double surplus = total - down[v];
    down[v] = t.uncovered_[v] > 0
                  ? surplus / static_cast<double>(t.uncovered_[v])
                  : surplus;
  }
  Vec x(t.owner_.size(), 0.0);
  for (std::size_t c = 0; c < t.owner_.size(); ++c)
    if (t.owner_[c] != kNone) x[c] = down[t.owner_[c]];
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
