#include "ops/inference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "linalg/dense.h"
#include "linalg/haar.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"
#include "matrix/rewrite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/hierarchy.h"
#include "util/check.h"

namespace ektelo {

namespace {

obs::Histogram& ExactSeconds(bool haar) {
  obs::Registry& r = obs::Registry::Global();
  static obs::Histogram& tree = r.GetHistogram(
      "ektelo_solver_seconds", "Wall time of one solver call",
      "solver=\"tree\"");
  static obs::Histogram& wavelet = r.GetHistogram(
      "ektelo_solver_seconds", "Wall time of one solver call",
      "solver=\"haar\"");
  return haar ? wavelet : tree;
}

/// The cell -> group map of a partition reduction (each column holds a
/// single 1): a 0/1 SparseOp or a product of those.
bool PartitionMap(const LinOp& op, std::vector<std::size_t>* group_of) {
  if (const auto* sp = dynamic_cast<const SparseOp*>(&op)) {
    const CsrMatrix& m = sp->csr();
    if (m.nnz() != m.cols()) return false;
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    group_of->assign(m.cols(), kNone);
    for (std::size_t g = 0; g < m.rows(); ++g)
      for (std::size_t k = m.indptr()[g]; k < m.indptr()[g + 1]; ++k) {
        std::size_t& slot = (*group_of)[m.indices()[k]];
        if (m.values()[k] != 1.0 || slot != kNone) return false;
        slot = g;
      }
    return true;  // nnz == cols and no column twice: every column mapped
  }
  if (const auto* prod = dynamic_cast<const ProductOp*>(&op)) {
    std::vector<std::size_t> outer;
    if (!PartitionMap(*prod->a(), &outer) ||
        !PartitionMap(*prod->b(), group_of))
      return false;
    for (std::size_t& g : *group_of) g = outer[g];
    return true;
  }
  return false;
}

/// Appends the rows of `op` to `out` when every row is a scaled 0/1
/// indicator of a cell set.  Reads the operator kinds directly (never
/// through materialization); returns false on any other structure.
bool AppendIndicatorRows(const LinOp& op, IndicatorRows* out) {
  const std::size_t first = out->rows();
  if (const auto* sc = dynamic_cast<const ScaleOp*>(&op)) {
    if (!AppendIndicatorRows(*sc->child(), out)) return false;
    for (std::size_t r = first; r < out->rows(); ++r)
      out->coef[r] *= sc->scale();
    return true;
  }
  if (const auto* rw = dynamic_cast<const RowWeightOp*>(&op)) {
    if (!AppendIndicatorRows(*rw->child(), out)) return false;
    for (std::size_t r = first; r < out->rows(); ++r)
      out->coef[r] *= rw->weights()[r - first];
    return true;
  }
  if (const auto* vs = dynamic_cast<const VStackOp*>(&op)) {
    for (const LinOpPtr& c : vs->children())
      if (!AppendIndicatorRows(*c, out)) return false;
    return true;
  }
  if (const auto* rs = dynamic_cast<const RangeSetOp*>(&op)) {
    for (const Interval& iv : rs->ranges()) {
      out->AddRun(iv.lo, iv.hi + 1);
      out->EndRow(1.0);
    }
    return true;
  }
  if (const auto* rc = dynamic_cast<const RectangleSetOp*>(&op)) {
    const std::size_t ny = rc->ny();
    for (const Rectangle& r : rc->rects()) {
      for (std::size_t i = r.x_lo; i <= r.x_hi; ++i)
        out->AddRun(i * ny + r.y_lo, i * ny + r.y_hi + 1);
      out->EndRow(1.0);
    }
    return true;
  }
  if (dynamic_cast<const OnesOp*>(&op)) {
    for (std::size_t r = 0; r < op.rows(); ++r) {
      out->AddRun(0, op.cols());
      out->EndRow(1.0);
    }
    return true;
  }
  if (dynamic_cast<const IdentityOp*>(&op)) {
    for (std::size_t c = 0; c < op.cols(); ++c) {
      out->AddRun(c, c + 1);
      out->EndRow(1.0);
    }
    return true;
  }
  if (const auto* sp = dynamic_cast<const SparseOp*>(&op)) {
    const CsrMatrix& m = sp->csr();
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const std::size_t lo = m.indptr()[r], hi = m.indptr()[r + 1];
      for (std::size_t k = lo; k < hi; ++k) {
        if (m.values()[k] != m.values()[lo]) return false;
        if (k > lo && m.indices()[k] <= m.indices()[k - 1]) return false;
        out->AddRun(m.indices()[k], m.indices()[k] + 1);
      }
      out->EndRow(hi > lo ? m.values()[lo] : 0.0);
    }
    return true;
  }
  if (const auto* kr = dynamic_cast<const KroneckerOp*>(&op)) {
    // Row (ia, ib) covers cells ja * nb + jb over the two supports.
    IndicatorRows a, b;
    if (!AppendIndicatorRows(*kr->a(), &a) ||
        !AppendIndicatorRows(*kr->b(), &b))
      return false;
    const std::size_t nb = kr->b()->cols();
    for (std::size_t ia = 0; ia < a.rows(); ++ia)
      for (std::size_t ib = 0; ib < b.rows(); ++ib) {
        for (std::size_t ka = a.row_start[ia]; ka < a.row_start[ia + 1]; ++ka)
          for (std::size_t ja = a.runs[ka].first; ja < a.runs[ka].second;
               ++ja)
            for (std::size_t kb = b.row_start[ib]; kb < b.row_start[ib + 1];
                 ++kb)
              out->AddRun(ja * nb + b.runs[kb].first,
                          ja * nb + b.runs[kb].second);
        out->EndRow(a.coef[ia] * b.coef[ib]);
      }
    return true;
  }
  if (const auto* prod = dynamic_cast<const ProductOp*>(&op)) {
    // F * P with P a partition reduction: a row over groups covers the
    // cells of those groups, added as each group's runs of consecutive
    // cells (one run per group for an interval partition).
    std::vector<std::size_t> group_of;
    if (!PartitionMap(*prod->b(), &group_of)) return false;
    IndicatorRows f;
    if (!AppendIndicatorRows(*prod->a(), &f)) return false;
    const std::size_t groups = prod->b()->rows(), n = group_of.size();
    // Group g's runs are runs[start[g] .. start[g + 1]), in cell order.
    std::vector<std::size_t> start(groups + 1, 0);
    for (std::size_t c = 0; c < n; ++c)
      if (c == 0 || group_of[c] != group_of[c - 1]) ++start[group_of[c] + 1];
    for (std::size_t g = 0; g < groups; ++g) start[g + 1] += start[g];
    std::vector<std::pair<std::size_t, std::size_t>> runs(start[groups]);
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (std::size_t c = 0; c < n;) {
      std::size_t e = c + 1;
      while (e < n && group_of[e] == group_of[c]) ++e;
      runs[fill[group_of[c]]++] = {c, e};
      c = e;
    }
    for (std::size_t r = 0; r < f.rows(); ++r) {
      for (std::size_t k = f.row_start[r]; k < f.row_start[r + 1]; ++k)
        for (std::size_t g = f.runs[k].first; g < f.runs[k].second; ++g)
          for (std::size_t i = start[g]; i < start[g + 1]; ++i)
            out->AddRun(runs[i].first, runs[i].second);
      out->EndRow(f.coef[r]);
    }
    return true;
  }
  return false;
}

/// LinOp::Topology's builder: the topology of `op`'s indicator rows.
std::shared_ptr<const LaminarTopology> BuildTopology(const LinOp& op) {
  IndicatorRows rows;
  if (op.cols() > LaminarTopology::kMaxCells ||
      !AppendIndicatorRows(op, &rows))
    return nullptr;
  std::optional<LaminarTopology> t =
      LaminarTopology::Build(std::move(rows), op.cols());
  if (!t.has_value()) return nullptr;
  return std::make_shared<const LaminarTopology>(*std::move(t));
}

/// The forest of `op`'s rows with every coefficient multiplied by `scale`:
/// the topology cached on `op` with this solve's weights, or, when the
/// scaling zeroes a row, a fresh build from the scaled rows.
std::optional<LaminarForest> ScaledForest(const LinOp& op, double scale) {
  std::shared_ptr<const LaminarTopology> topology = op.Topology(&BuildTopology);
  if (topology == nullptr) return std::nullopt;
  if (std::optional<LaminarForest> f = LaminarForest::Weigh(topology, scale))
    return f;
  IndicatorRows rows;
  EK_CHECK(AppendIndicatorRows(op, &rows));
  for (double& v : rows.coef) v *= scale;
  return LaminarForest::Build(std::move(rows), op.cols());
}

/// One measurement of Kron(F, I_k) or Kron(I_k, F), possibly scaled:
/// the system splits into k independent copies of F's, one per identity
/// index, so F's forest is weighed once and solved k times.
std::optional<Vec> SeparableTreeLeastSquares(const MeasurementSet& mset,
                                             std::size_t* nodes) {
  if (mset.size() != 1) return std::nullopt;
  const Measurement& it = mset.items()[0];
  const double w = mset.WeightFor(it.noise_scale);
  double c = w;  // the weighted value of every indicator entry
  const LinOp* op = it.m.get();
  while (const auto* sc = dynamic_cast<const ScaleOp*>(op)) {
    c *= sc->scale();
    op = sc->child().get();
  }
  const auto* kr = dynamic_cast<const KroneckerOp*>(op);
  if (kr == nullptr) return std::nullopt;
  const bool right =
      dynamic_cast<const IdentityOp*>(kr->b().get()) != nullptr;
  if (!right && !dynamic_cast<const IdentityOp*>(kr->a().get()))
    return std::nullopt;
  const LinOp& f = right ? *kr->a() : *kr->b();
  const std::size_t k = right ? kr->b()->cols() : kr->a()->cols();
  std::optional<LaminarForest> forest = ScaledForest(f, c);
  if (!forest.has_value()) return std::nullopt;
  *nodes = forest->nodes() * k;
  // Copy j reads rows (i, j) and writes cells (l, j) under Kron(F, I_k),
  // rows (j, i) and cells (j, l) under Kron(I_k, F).
  const std::size_t m = f.rows(), n = f.cols();
  Vec x(n * k), b(m);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < m; ++i)
      b[i] = w * it.y[right ? i * k + j : j * m + i];
    const Vec xj = forest->Solve(b);
    for (std::size_t l = 0; l < n; ++l)
      x[right ? l * k + j : j * n + l] = xj[l];
  }
  return x;
}

/// Tree path: every measurement is a stack of scaled indicator rows whose
/// supports are laminar.  A single measurement solves on the topology
/// cached on its operator; a stack of several builds its forest afresh.
std::optional<Vec> TreeLeastSquares(const MeasurementSet& mset,
                                    uint64_t t0) {
  const std::size_t n = mset.Domain();
  if (n > LaminarTopology::kMaxCells) return std::nullopt;
  std::size_t nodes = 0;
  std::optional<Vec> x = SeparableTreeLeastSquares(mset, &nodes);
  if (!x.has_value()) {
    std::optional<LaminarForest> forest;
    Vec b;
    b.reserve(mset.TotalQueries());
    if (mset.size() == 1) {
      const Measurement& it = mset.items()[0];
      const double w = mset.WeightFor(it.noise_scale);
      forest = ScaledForest(*it.m, w);
      if (!forest.has_value()) return std::nullopt;
      for (double v : it.y) b.push_back(w * v);
    } else {
      IndicatorRows rows;
      rows.Reserve(mset.TotalQueries(), mset.TotalQueries());
      for (const Measurement& it : mset.items()) {
        const std::size_t first = rows.rows();
        if (!AppendIndicatorRows(*it.m, &rows)) return std::nullopt;
        const double w = mset.WeightFor(it.noise_scale);
        for (std::size_t r = first; r < rows.rows(); ++r) rows.coef[r] *= w;
        for (double v : it.y) b.push_back(w * v);
      }
      forest = LaminarForest::Build(std::move(rows), n);
      if (!forest.has_value()) return std::nullopt;
    }
    nodes = forest->nodes();
    x = forest->Solve(b);
  }
  if (t0 != 0)
    obs::RecordManualSpan(
        "solver.tree", "solver", t0, obs::NowNs(), &ExactSeconds(false),
        {{"nodes", nullptr, static_cast<double>(nodes)},
         {"cells", nullptr, static_cast<double>(n)},
         {"rows", nullptr, static_cast<double>(mset.TotalQueries())}});
  return x;
}

/// Haar path: one measurement of a row-scaled WaveletOp.  H is square with
/// orthogonal rows, so x = H^T diag(H H^T)^-1 D^-1 y, where H H^T has n on
/// the total row and n / 2^j on the rows of level j.
std::optional<Vec> HaarLeastSquares(const MeasurementSet& mset,
                                    uint64_t t0) {
  if (mset.size() != 1) return std::nullopt;
  const Measurement& it = mset.items()[0];
  const std::size_t n = it.m->cols();
  Vec d(n, 1.0);  // row scales of the measured operator
  const LinOp* op = it.m.get();
  while (true) {
    if (const auto* sc = dynamic_cast<const ScaleOp*>(op)) {
      for (double& v : d) v *= sc->scale();
      op = sc->child().get();
    } else if (const auto* rw = dynamic_cast<const RowWeightOp*>(op)) {
      for (std::size_t r = 0; r < n; ++r) d[r] *= rw->weights()[r];
      op = rw->child().get();
    } else {
      break;
    }
  }
  if (!dynamic_cast<const WaveletOp*>(op)) return std::nullopt;
  for (double v : d)
    if (v == 0.0) return std::nullopt;
  // Rows [2^j, 2^(j+1)) form level j, each with n / 2^j nonzeros.
  Vec u(n);
  u[0] = it.y[0] / (d[0] * static_cast<double>(n));
  for (std::size_t first = 1, len = n; first < n; first <<= 1, len >>= 1)
    for (std::size_t r = first; r < 2 * first; ++r)
      u[r] = it.y[r] / (d[r] * static_cast<double>(len));
  Vec x(n);
  HaarSynthesis(u.data(), x.data(), n);
  if (t0 != 0)
    obs::RecordManualSpan("solver.haar", "solver", t0, obs::NowNs(),
                          &ExactSeconds(true),
                          {{"nodes", nullptr, static_cast<double>(n)},
                           {"cells", nullptr, static_cast<double>(n)},
                           {"rows", nullptr, static_cast<double>(n)}});
  return x;
}

}  // namespace

Vec LeastSquaresInference(const MeasurementSet& mset,
                          const LsmrOptions& opts) {
  EK_CHECK(!mset.empty());
  // Structured sets with a closed-form solution skip the iterative solve.
  // Recognition reads the measurements as recorded, so the rewrite toggle
  // cannot change which path runs or its bits.
  const uint64_t t0 = obs::ArmedFlags() != 0 ? obs::NowNs() : 0;
  if (std::optional<Vec> x = HaarLeastSquares(mset, t0)) return *std::move(x);
  if (std::optional<Vec> x = TreeLeastSquares(mset, t0)) return *std::move(x);
  // Canonicalize the weighted stack before the iterative solve: merged
  // measurement unions and scale-folded leaves cut the per-iteration
  // apply cost without changing the represented matrix.
  LinOpPtr a = MaybeRewrite(mset.WeightedOp());
  Vec b = mset.WeightedY();
  return Lsmr(*a, b, opts).x;
}

Vec NnlsInference(const MeasurementSet& mset,
                  std::optional<double> known_total,
                  const NnlsOptions& opts) {
  EK_CHECK(!mset.empty());
  MeasurementSet augmented = mset;
  if (known_total.has_value()) {
    augmented.Add(MakeTotalOp(mset.Domain()), Vec{*known_total},
                  /*noise_scale=*/0.0);
  }
  // Deliberately NOT rewritten: when the system is underdetermined (early
  // MWEM rounds) the projected-gradient solver lands on a representation-
  // dependent point of the minimizer set, so an algebraically equivalent
  // but re-associated stack can move the answer by far more than
  // roundoff.  Callers that want the merged-union fast path build it
  // themselves (MwemLoopPlan), identically under both A/B toggles.
  LinOpPtr a = augmented.WeightedOp();
  Vec b = augmented.WeightedY();
  return Nnls(*a, b, opts).x;
}

Vec MultWeightsStep(const MeasurementSet& mset, Vec xhat,
                    const MwOptions& opts) {
  EK_CHECK(!mset.empty());
  const std::size_t n = mset.Domain();
  EK_CHECK_EQ(xhat.size(), n);
  double total = Sum(xhat);
  if (total <= 0.0) return xhat;
  LinOpPtr m = MaybeRewrite(mset.StackedOp());
  Vec y = mset.StackedY();
  for (std::size_t it = 0; it < opts.iterations; ++it) {
    // g = 0.5 M^T (y - M xhat): increase cells under-counted by xhat.
    Vec res = m->Apply(xhat);
    for (std::size_t i = 0; i < res.size(); ++i) res[i] = y[i] - res[i];
    Vec g = m->ApplyT(res);
    double new_total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      // Clamp the exponent for numerical robustness on extreme residuals.
      double e = opts.learning_rate * 0.5 * g[j] / total;
      e = std::clamp(e, -30.0, 30.0);
      xhat[j] *= std::exp(e);
      new_total += xhat[j];
    }
    if (new_total <= 0.0) break;
    const double rescale = total / new_total;
    for (double& v : xhat) v *= rescale;
  }
  return xhat;
}

Vec MultWeightsInference(const MeasurementSet& mset, double total,
                         const MwOptions& opts) {
  EK_CHECK(!mset.empty());
  const std::size_t n = mset.Domain();
  EK_CHECK_GT(total, 0.0);
  Vec xhat(n, total / static_cast<double>(n));  // uniform start
  return MultWeightsStep(mset, std::move(xhat), opts);
}

Vec DirectLeastSquaresInference(const MeasurementSet& mset) {
  EK_CHECK(!mset.empty());
  // Assemble the n x n normal equations from the structured Gram operator
  // instead of densifying the (queries x n) measurement stack: the stack
  // is usually much taller than the domain, and Gram() materializes via
  // blocked identity panels when no closed form applies.
  LinOpPtr a = MaybeRewrite(mset.WeightedOp());
  DenseMatrix gram = a->Gram()->MaterializeDense();
  Vec atb = a->ApplyT(mset.WeightedY());
  return SolveNormalEquations(std::move(gram), atb);
}

Vec ThresholdingInference(Vec xhat, double threshold) {
  EK_CHECK_GE(threshold, 0.0);
  for (double& v : xhat)
    if (std::abs(v) < threshold) v = 0.0;
  return xhat;
}

}  // namespace ektelo
