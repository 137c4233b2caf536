#include "ops/partition_select.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "matrix/implicit_ops.h"
#include "ops/selection.h"
#include "util/check.h"

namespace ektelo {

Partition GridPartition2D(std::size_t nx, std::size_t ny, std::size_t gx,
                          std::size_t gy) {
  gx = std::min(std::max<std::size_t>(gx, 1), nx);
  gy = std::min(std::max<std::size_t>(gy, 1), ny);
  // Block index of each coordinate along one axis, walking the shared
  // boundaries of GridBlockStart.
  auto blocks = [](std::size_t n, std::size_t g) {
    std::vector<std::size_t> block(n);
    for (std::size_t i = 0, a = 0; i < n; ++i) {
      while (i >= GridBlockStart(a + 1, n, g)) ++a;
      block[i] = a;
    }
    return block;
  };
  const std::vector<std::size_t> bx = blocks(nx, gx), by = blocks(ny, gy);
  std::vector<uint32_t> group(nx * ny);
  for (std::size_t i = 0; i < nx; ++i)
    for (std::size_t j = 0; j < ny; ++j)
      group[i * ny + j] = static_cast<uint32_t>(bx[i] * gy + by[j]);
  return Partition(std::move(group), gx * gy);
}

Partition StripePartition(const std::vector<std::size_t>& dims,
                          std::size_t stripe_dim) {
  EK_CHECK_LT(stripe_dim, dims.size());
  std::size_t n = 1;
  for (std::size_t d : dims) n *= d;
  std::size_t rest = n / dims[stripe_dim];
  std::vector<uint32_t> group(n);
  // The group index is the flattened code over the non-stripe dims (in dim
  // order): gstride[d] is dim d's weight in it, 0 for the stripe dim.
  // Cells are visited in row-major order with an odometer over the codes.
  std::vector<std::size_t> codes(dims.size(), 0), gstride(dims.size(), 0);
  for (std::size_t d = dims.size(), s = 1; d-- > 0;) {
    if (d == stripe_dim) continue;
    gstride[d] = s;
    s *= dims[d];
  }
  std::size_t g = 0;
  for (std::size_t cell = 0; cell < n; ++cell) {
    group[cell] = static_cast<uint32_t>(g);
    for (std::size_t d = dims.size(); d-- > 0;) {
      g += gstride[d];
      if (++codes[d] < dims[d]) break;
      g -= gstride[d] * dims[d];
      codes[d] = 0;
    }
  }
  return Partition(std::move(group), rest);
}

Partition MarginalPartition(const std::vector<std::size_t>& dims,
                            const std::vector<std::size_t>& keep_dims) {
  EK_CHECK(std::is_sorted(keep_dims.begin(), keep_dims.end()));
  std::size_t n = 1;
  for (std::size_t d : dims) n *= d;
  std::size_t groups = 1;
  for (std::size_t d : keep_dims) groups *= dims[d];
  std::vector<uint32_t> group(n);
  std::vector<std::size_t> codes(dims.size());
  for (std::size_t cell = 0; cell < n; ++cell) {
    std::size_t rem = cell;
    for (std::size_t d = dims.size(); d-- > 0;) {
      codes[d] = rem % dims[d];
      rem /= dims[d];
    }
    std::size_t g = 0;
    for (std::size_t d : keep_dims) g = g * dims[d] + codes[d];
    group[cell] = static_cast<uint32_t>(g);
  }
  return Partition(std::move(group), groups);
}

Partition AhpClusterPartition(const Vec& noisy, double threshold,
                              double gap) {
  const std::size_t n = noisy.size();
  EK_CHECK_GT(n, 0u);
  Vec v = noisy;
  for (double& x : v)
    if (x < threshold) x = 0.0;

  // Sort cells by (thresholded) noisy value; grow a group while the value
  // stays within `gap` of the group's anchor.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });

  std::vector<uint32_t> group(n, 0);
  uint32_t g = 0;
  double anchor = v[order[0]];
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t cell = order[k];
    if (v[cell] - anchor > gap) {
      ++g;
      anchor = v[cell];
    }
    group[cell] = g;
  }
  return Partition(std::move(group), g + 1);
}

Partition DawaIntervalPartition(const Vec& noisy, double penalty,
                                double noise_scale) {
  return DawaIntervalPartition(noisy, penalty,
                               Vec(noisy.size(), noise_scale));
}

Partition DawaIntervalPartition(const Vec& noisy, double penalty,
                                const Vec& noise_scales) {
  const std::size_t n = noisy.size();
  EK_CHECK_GT(n, 0u);
  EK_CHECK_EQ(noise_scales.size(), n);
  // Prefix sums for interval means and per-cell noise corrections.
  Vec prefix(n + 1, 0.0), bsum(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + noisy[i];
    bsum[i + 1] = bsum[i] + noise_scales[i];
  }

  auto interval_cost = [&](std::size_t lo, std::size_t hi) {
    // Bias-corrected sum_{i in [lo, hi)} |x_i - mean| + penalty: a truly
    // uniform bucket still shows ~E|Lap| of apparent deviation per cell.
    const std::size_t len = hi - lo;
    const double mean = (prefix[hi] - prefix[lo]) / double(len);
    double dev = 0.0;
    for (std::size_t i = lo; i < hi; ++i) dev += std::abs(noisy[i] - mean);
    if (len > 1) dev = std::max(0.0, dev - (bsum[hi] - bsum[lo]));
    return dev + penalty;
  };

  // DP over aligned dyadic intervals: interval [i - L, i) is a candidate
  // when L = 2^j and i is a multiple of L.  This is DAWA's dyadic
  // restriction (DESIGN.md); unit intervals keep every cut reachable.
  std::vector<double> best(n + 1, 1e300);
  std::vector<std::size_t> take(n + 1, 0);  // chosen interval length at i
  best[0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t len = 1; len <= i; len <<= 1) {
      if (i % len != 0) continue;
      const double cand = best[i - len] + interval_cost(i - len, i);
      if (cand < best[i]) {
        best[i] = cand;
        take[i] = len;
      }
    }
  }
  // Backtrack the cut points.
  std::vector<std::size_t> cuts;
  std::size_t pos = n;
  while (pos > 0) {
    cuts.push_back(pos - take[pos]);
    pos -= take[pos];
  }
  std::reverse(cuts.begin(), cuts.end());
  return Partition::FromIntervals(cuts, n);
}

StatusOr<Partition> AhpPartitionSelect(ProtectedKernel* kernel, SourceId src,
                                       double eps, const AhpOptions& opts) {
  const std::size_t n = kernel->VectorSize(src);
  EK_ASSIGN_OR_RETURN(Vec noisy,
                      kernel->VectorLaplace(src, *MakeIdentityOp(n), eps));
  const double noise_scale = 1.0 / eps;
  const double threshold =
      opts.eta * std::log(std::max<double>(double(n), 2.0)) / eps;
  return AhpClusterPartition(noisy, threshold,
                             opts.gap_factor * noise_scale);
}

StatusOr<Partition> DawaPartitionSelect(ProtectedKernel* kernel, SourceId src,
                                        double eps,
                                        const DawaOptions& opts) {
  const std::size_t n = kernel->VectorSize(src);
  EK_ASSIGN_OR_RETURN(Vec noisy,
                      kernel->VectorLaplace(src, *MakeIdentityOp(n), eps));
  if (!opts.cell_volumes.empty()) {
    EK_CHECK_EQ(opts.cell_volumes.size(), n);
    Vec density(n), scales(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double vol = std::max(opts.cell_volumes[i], 1.0);
      density[i] = noisy[i] / vol;
      scales[i] = (1.0 / eps) / vol;
    }
    return DawaIntervalPartition(density, opts.penalty_factor / eps,
                                 scales);
  }
  return DawaIntervalPartition(noisy, opts.penalty_factor / eps,
                               /*noise_scale=*/1.0 / eps);
}

StatusOr<Partition> AhpPartitionSelect(const ProtectedVector& x, double eps,
                                       BudgetScope& scope,
                                       const AhpOptions& opts) {
  return ScopeMetered(scope, eps, [&] {
    return AhpPartitionSelect(x.kernel(), x.id(), eps, opts);
  });
}

StatusOr<Partition> DawaPartitionSelect(const ProtectedVector& x, double eps,
                                        BudgetScope& scope,
                                        const DawaOptions& opts) {
  return ScopeMetered(scope, eps, [&] {
    return DawaPartitionSelect(x.kernel(), x.id(), eps, opts);
  });
}

}  // namespace ektelo
