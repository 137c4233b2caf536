#include "matrix/nnls.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace ektelo {

namespace {
obs::Counter& NnlsIterations() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "ektelo_solver_iterations", "Solver inner iterations run",
      "solver=\"nnls\"");
  return c;
}
obs::Histogram& NnlsSeconds() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "ektelo_solver_seconds", "Wall time of one solver call",
      "solver=\"nnls\"");
  return h;
}
}  // namespace

double EstimateSpectralNormSqGram(const LinOp& gram, std::size_t iters) {
  const std::size_t n = gram.cols();
  // iters == 0 would return the uninitialized placeholder estimate (1.0)
  // regardless of the operator; always run at least one power step so the
  // result reflects the Gram.
  iters = std::max<std::size_t>(iters, 1);
  // Deterministic pseudo-random start vector (no RNG dependency here).
  Vec v(n);
  double seed = 0.5;
  for (std::size_t j = 0; j < n; ++j) {
    seed = std::fmod(seed * 997.0 + 3.14159, 1.0);
    v[j] = seed + 0.1;
  }
  double nv = Norm2(v);
  Scale(1.0 / nv, &v);
  double lambda = 1.0;
  Vec w(n);
  for (std::size_t it = 0; it < iters; ++it) {
    gram.ApplyRaw(v.data(), w.data());
    // Pre-scale by the max magnitude before taking the norm: on Grams
    // with huge spectral norm (~1e200 and up) the sum of squares inside
    // Norm2 overflows to inf even though the norm itself is
    // representable, and the iterate would collapse to zeros/NaNs.
    const double m = MaxAbs(w);
    if (m == 0.0) return 0.0;
    Scale(1.0 / m, &w);
    lambda = m * Norm2(w);
    Scale(m / lambda, &w);
    v.swap(w);
  }
  return lambda;
}

double EstimateSpectralNormSq(const LinOp& a, std::size_t iters) {
  return EstimateSpectralNormSqGram(*a.Gram(), iters);
}

NnlsResult Nnls(const LinOp& a, const Vec& b, const NnlsOptions& opts) {
  const std::size_t n = a.cols();
  EK_CHECK_EQ(b.size(), a.rows());
  obs::Span span("solver.nnls", "solver", &NnlsSeconds());
  span.Attr("rows", static_cast<double>(a.rows()));
  span.Attr("cols", static_cast<double>(n));

  // The whole FISTA loop runs on the normal-equations side: gradient and
  // objective are both functions of (Gram, A^T b, ||b||^2), so each
  // iteration costs a single Gram apply — structured Grams (sparse A^T A,
  // Kron of Grams) make it cheaper still, and A itself is applied exactly
  // once, for the final residual report.
  const LinOpPtr g = a.Gram();
  const Vec atb = a.ApplyT(b);
  const double btb = Dot(b, b);

  double lip = EstimateSpectralNormSqGram(*g, opts.power_iters);
  if (lip <= 0.0) lip = 1.0;
  const double step = 1.0 / (1.05 * lip);  // slack for estimation error

  NnlsResult result;
  Vec x(n, 0.0);
  if (!opts.x0.empty()) {
    EK_CHECK_EQ(opts.x0.size(), n);
    x = opts.x0;
    for (double& v : x) v = std::max(v, 0.0);
  }
  Vec gx(n, 0.0);  // G x, kept in lockstep with x
  g->ApplyRaw(x.data(), gx.data());
  Vec yk = x, gyk = gx;  // momentum iterate and its Gram image
  double t = 1.0;
  double prev_obj = 1e300;

  Vec grad(n), x_new(n), gx_new(n);
  std::size_t it = 0;
  std::size_t restarts = 0;
  for (; it < opts.max_iters; ++it) {
    // grad = A^T (A y - b) = G y - A^T b.
    for (std::size_t j = 0; j < n; ++j) grad[j] = gyk[j] - atb[j];

    for (std::size_t j = 0; j < n; ++j)
      x_new[j] = std::max(0.0, yk[j] - step * grad[j]);
    g->ApplyRaw(x_new.data(), gx_new.data());

    // 0.5||A z - b||^2 = 0.5 z^T G z - z^T A^T b + 0.5 ||b||^2.
    const double obj =
        0.5 * Dot(x_new, gx_new) - Dot(x_new, atb) + 0.5 * btb;
    // Monotone restart: if the objective went up, drop momentum.  The
    // `continue` already routes through the for-loop's increment; bumping
    // `it` here too would double-count the pass (over-reported iteration
    // totals and a silently halved max_iters on restart-heavy problems).
    if (obj > prev_obj) {
      t = 1.0;
      yk = x;
      gyk = gx;
      ++restarts;
      continue;
    }
    prev_obj = obj;

    const double t_new = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double mom = (t - 1.0) / t_new;
    double dx = 0.0, nx = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double diff = x_new[j] - x[j];
      dx += diff * diff;
      nx += x_new[j] * x_new[j];
      yk[j] = x_new[j] + mom * diff;
      // G is linear, so the momentum iterate's Gram image extrapolates for
      // free: G y = G x_new + mom (G x_new - G x).
      gyk[j] = gx_new[j] + mom * (gx_new[j] - gx[j]);
    }
    x = x_new;
    gx = gx_new;
    t = t_new;
    if (std::sqrt(dx) <= opts.tol * std::max(1.0, std::sqrt(nx))) {
      ++it;
      break;
    }
  }

  Vec r = a.Apply(x);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
  result.residual_norm = Norm2(r);
  result.x = std::move(x);
  result.iterations = it;
  result.restarts = restarts;
  NnlsIterations().Inc(result.iterations);
  span.Attr("iterations", static_cast<double>(result.iterations));
  return result;
}

}  // namespace ektelo
