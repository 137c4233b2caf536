#include "matrix/lsmr.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace ektelo {

namespace {

obs::Counter& LsmrIterations() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "ektelo_solver_iterations", "Solver inner iterations run",
      "solver=\"lsmr\"");
  return c;
}
obs::Histogram& LsmrSeconds() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "ektelo_solver_seconds", "Wall time of one solver call",
      "solver=\"lsmr\"");
  return h;
}

/// Stable Givens rotation (SymOrtho from the LSMR paper).
void SymOrtho(double a, double b, double* c, double* s, double* r) {
  if (b == 0.0) {
    *c = (a >= 0.0) ? 1.0 : -1.0;
    if (a == 0.0) *c = 1.0;
    *s = 0.0;
    *r = std::abs(a);
  } else if (a == 0.0) {
    *c = 0.0;
    *s = (b >= 0.0) ? 1.0 : -1.0;
    *r = std::abs(b);
  } else if (std::abs(b) > std::abs(a)) {
    double tau = a / b;
    double sign_b = (b >= 0.0) ? 1.0 : -1.0;
    *s = sign_b / std::sqrt(1.0 + tau * tau);
    *c = *s * tau;
    *r = b / *s;
  } else {
    double tau = b / a;
    double sign_a = (a >= 0.0) ? 1.0 : -1.0;
    *c = sign_a / std::sqrt(1.0 + tau * tau);
    *s = *c * tau;
    *r = a / *c;
  }
}

}  // namespace

LsmrResult Lsmr(const LinOp& a, const Vec& b, const LsmrOptions& opts) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  EK_CHECK_EQ(b.size(), m);
  const std::size_t max_iters =
      opts.max_iters > 0 ? opts.max_iters
                         : std::max<std::size_t>(4 * std::min(m, n), 100);
  obs::Span span("solver.lsmr", "solver", &LsmrSeconds());
  span.Attr("rows", static_cast<double>(m));
  span.Attr("cols", static_cast<double>(n));

  LsmrResult result;
  result.x.assign(n, 0.0);

  // Golub-Kahan bidiagonalization init.
  Vec u = b;
  double beta = Norm2(u);
  if (beta > 0.0) Scale(1.0 / beta, &u);
  Vec v(n, 0.0);
  double alpha = 0.0;
  if (beta > 0.0) {
    v = a.ApplyT(u);
    alpha = Norm2(v);
    if (alpha > 0.0) Scale(1.0 / alpha, &v);
  }
  if (alpha * beta == 0.0) {
    // b is zero (or in the null space of A^T): x = 0 is the solution.
    result.residual_norm = beta;
    return result;
  }

  double zetabar = alpha * beta;
  double alphabar = alpha;
  double rho = 1.0, rhobar = 1.0, cbar = 1.0, sbar = 0.0;

  Vec h = v;
  Vec hbar(n, 0.0);

  // Residual-norm estimation state.
  double betadd = beta, betad = 0.0;
  double rhodold = 1.0, tautildeold = 0.0, thetatilde = 0.0, zeta = 0.0;
  double d = 0.0;

  // Norm/cond estimation.
  double norm_a2 = alpha * alpha;
  double maxrbar = 0.0, minrbar = 1e100;
  const double normb = beta;
  const double ctol = opts.conlim > 0.0 ? 1.0 / opts.conlim : 0.0;

  std::size_t itn = 0;
  double normr = beta;
  // Work buffers reused across iterations: the bidiagonalization applies
  // go through the raw interface so no per-iteration Vec is allocated.
  Vec au(m), atv(n);
  while (itn < max_iters) {
    ++itn;

    // Next bidiagonalization step.
    a.ApplyRaw(v.data(), au.data());
    for (std::size_t i = 0; i < m; ++i) u[i] = au[i] - alpha * u[i];
    beta = Norm2(u);
    if (beta > 0.0) {
      Scale(1.0 / beta, &u);
      a.ApplyTRaw(u.data(), atv.data());
      for (std::size_t j = 0; j < n; ++j) v[j] = atv[j] - beta * v[j];
      alpha = Norm2(v);
      if (alpha > 0.0) Scale(1.0 / alpha, &v);
    }

    // Rotation for damping.
    double chat, shat, alphahat;
    SymOrtho(alphabar, opts.damp, &chat, &shat, &alphahat);

    // Plane rotation turning B_k into R_k.
    double rhoold = rho;
    double c, s;
    SymOrtho(alphahat, beta, &c, &s, &rho);
    double thetanew = s * alpha;
    alphabar = c * alpha;

    // Rotation turning R_k^T into R_k-bar.
    double rhobarold = rhobar;
    double zetaold = zeta;
    double thetabar = sbar * rho;
    double rhotemp = cbar * rho;
    SymOrtho(cbar * rho, thetanew, &cbar, &sbar, &rhobar);
    zeta = cbar * zetabar;
    zetabar = -sbar * zetabar;

    // Update h, hbar, x.
    const double hbar_coef = thetabar * rho / (rhoold * rhobarold);
    for (std::size_t j = 0; j < n; ++j) hbar[j] = h[j] - hbar_coef * hbar[j];
    const double x_coef = zeta / (rho * rhobar);
    for (std::size_t j = 0; j < n; ++j) result.x[j] += x_coef * hbar[j];
    const double h_coef = thetanew / rho;
    for (std::size_t j = 0; j < n; ++j) h[j] = v[j] - h_coef * h[j];

    // Residual-norm estimate.
    double betaacute = chat * betadd;
    double betacheck = -shat * betadd;
    double betahat = c * betaacute;
    betadd = -s * betaacute;
    double thetatildeold = thetatilde;
    double ctildeold, stildeold, rhotildeold;
    SymOrtho(rhodold, thetabar, &ctildeold, &stildeold, &rhotildeold);
    thetatilde = stildeold * rhobar;
    rhodold = ctildeold * rhobar;
    betad = -stildeold * betad + ctildeold * betahat;
    tautildeold = (zetaold - thetatildeold * tautildeold) / rhotildeold;
    double taud = (zeta - thetatilde * tautildeold) / rhodold;
    d += betacheck * betacheck;
    normr = std::sqrt(d + (betad - taud) * (betad - taud) + betadd * betadd);

    // ||A|| and cond(A) estimates.
    norm_a2 += beta * beta;
    const double norm_a = std::sqrt(norm_a2);
    norm_a2 += alpha * alpha;
    maxrbar = std::max(maxrbar, rhobarold);
    if (itn > 1) minrbar = std::min(minrbar, rhobarold);
    const double cond_a =
        std::max(maxrbar, rhotemp) / std::min(minrbar, rhotemp);

    // Convergence tests (as in the LSMR paper).
    const double normar = std::abs(zetabar);
    const double normx = Norm2(result.x);
    const double test1 = normr / normb;
    const double test2 = (norm_a * normr > 0.0)
                             ? normar / (norm_a * normr)
                             : 0.0;
    const double test3 = 1.0 / cond_a;
    const double rtol =
        opts.btol + opts.atol * norm_a * normx / normb;

    if (1.0 + test3 <= 1.0) {
      result.istop = 6;
      break;
    }
    if (1.0 + test2 <= 1.0) {
      result.istop = 5;
      break;
    }
    if (1.0 + test1 <= 1.0) {
      result.istop = 4;
      break;
    }
    if (test3 <= ctol) {
      result.istop = 3;
      break;
    }
    if (test2 <= opts.atol) {
      result.istop = 2;
      break;
    }
    if (test1 <= rtol) {
      result.istop = 1;
      break;
    }
  }

  // The loop ran out of iterations without meeting a stopping test.
  if (result.istop == 0) result.istop = 7;
  result.iterations = itn;
  result.residual_norm = normr;
  LsmrIterations().Inc(result.iterations);
  span.Attr("iterations", static_cast<double>(result.iterations));
  span.Attr("istop", static_cast<double>(result.istop));
  return result;
}

}  // namespace ektelo
