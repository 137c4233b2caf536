// Fig. 2: the plan catalog.  Enumerates PlanRegistry::Global() — so a
// newly registered plan is benchmarked automatically, no hand-maintained
// list — runs every plan end-to-end on a domain matching its DomainKind,
// and prints its signature, scaled workload error and budget spent: the
// "all plans are expressible and run" claim of Sec. 6, in executable
// form.  (PrivBayesLS starts from the protected *table*, outside the
// vector-plan registry, and keeps a hand-written row.)
//
// Besides the human-readable table, the run writes BENCH_plan_catalog.json
// with per-plan wall times (implicit mode plus a dense/sparse mode sweep
// over the representation-sensitive plans; those rows also carry
// `seconds_warm`, the median of repeated executions of the same PlanInput
// on fresh kernels, which is what a prepared strategy saves) and two
// operator-core micro-baselines that compare the blocked engine against
// the pre-refactor per-column evaluation strategy, so the perf trajectory
// of the materialization/Gram hot paths is recorded per commit.
#include <algorithm>

#include "bench_util.h"

using namespace ektelo;
using namespace ektelo::bench;

namespace {

/// Exposes only the apply interface of an operator (single and blocked),
/// hiding its structured materialization/Gram overrides.  This models the
/// class the generic fallback serves: operators that can be applied
/// efficiently but have no direct construction (composed Grams,
/// measurement stacks after vector transformations, ...).
class OpaqueOp final : public LinOp {
 public:
  explicit OpaqueOp(LinOpPtr inner)
      : LinOp(inner->rows(), inner->cols()), inner_(std::move(inner)) {}
  void ApplyRaw(const double* x, double* y) const override {
    inner_->ApplyRaw(x, y);
  }
  void ApplyTRaw(const double* x, double* y) const override {
    inner_->ApplyTRaw(x, y);
  }
  void ApplyBlockRaw(const double* x, double* y,
                     std::size_t k) const override {
    inner_->ApplyBlockRaw(x, y, k);
  }
  void ApplyTBlockRaw(const double* x, double* y,
                      std::size_t k) const override {
    inner_->ApplyTBlockRaw(x, y, k);
  }
  std::string DebugName() const override { return "Opaque"; }

 private:
  LinOpPtr inner_;
};

/// The pre-refactor MaterializeSparse fallback: one basis vector and one
/// scalar mat-vec per column.  Kept here as the measured baseline.
CsrMatrix PercolumnMaterialize(const LinOp& op) {
  std::vector<Triplet> t;
  Vec e(op.cols(), 0.0), col(op.rows());
  for (std::size_t j = 0; j < op.cols(); ++j) {
    e[j] = 1.0;
    op.ApplyRaw(e.data(), col.data());
    e[j] = 0.0;
    for (std::size_t i = 0; i < op.rows(); ++i)
      if (col[i] != 0.0) t.push_back({i, j, col[i]});
  }
  return CsrMatrix::FromTriplets(op.rows(), op.cols(), std::move(t));
}

/// The pre-refactor GramSparse: materialize M, then S^T S by sparse
/// matmul.  Baseline for the structured Gram() path.
CsrMatrix PercolumnGramSparse(const LinOp& op) {
  CsrMatrix s = PercolumnMaterialize(op);
  return s.Transpose().Matmul(s);
}

}  // namespace

int main() {
  Rng rng(2);
  const double eps = 0.5;
  JsonRecords json;

  std::printf("Fig 2: executable plan catalog (eps=%.2g)\n\n", eps);
  std::printf("%-4s %-18s %-34s %-9s %12s %8s %9s\n", "#", "plan",
              "signature", "mode", "err(ranges)", "budget", "secs");

  // Shared 1D environment pieces.
  const std::size_t n = 1024;
  Vec hist1d = MakeHistogram1D(Shape1D::kGaussianMix, n, 1e5, &rng);
  auto ranges = RandomRanges(200, n, 128, &rng);
  auto w_1d = RangeQueryOp(ranges, n);
  const double total = Sum(hist1d);

  // Shared 2D environment pieces.
  const std::size_t side = 32;
  Vec hist2d = MakeHistogram2D(side, side, 1e5, &rng);
  Rng rng2 = rng.Fork();
  auto rects = RandomRectangleWorkload(200, side, side, 16, &rng2);

  // Shared multi-dim (striped) environment pieces.
  const std::vector<std::size_t> dims3 = {64, 4, 4};
  Vec hist3 = MakeHistogram1D(Shape1D::kStep, 64 * 16, 1e5, &rng);
  auto ranges3 = RandomRanges(200, 64 * 16, 64, &rng);
  auto w_3 = RangeQueryOp(ranges3, 64 * 16);

  int id = 0;
  // Re-executions behind `seconds_warm`: the same PlanInput, each on a
  // fresh kernel (same seed), as a server re-executes a request shape it
  // has already served.
  constexpr int kWarmRepeats = 5;
  // One registry-driven row: environment, workload and error metric are
  // picked from the plan's DomainKind; inputs the plan does not need are
  // simply ignored by it.
  auto row = [&](const Plan& plan, MatrixMode mode, bool warm) {
    ++id;
    const Vec* hist = &hist1d;
    std::vector<std::size_t> dims = {n};
    const LinOp* err_w = w_1d.get();
    switch (plan.domain()) {
      case DomainKind::k1D:
        break;
      case DomainKind::k2D:
        hist = &hist2d;
        dims = {side, side};
        err_w = rects.get();
        break;
      case DomainKind::kMultiDim:
        hist = &hist3;
        dims = dims3;
        err_w = w_3.get();
        break;
    }
    HistEnv env(*hist, dims, eps, 4000 + id, &rng, mode);
    BudgetScope scope(eps);
    PlanInput in = env.in;
    in.ranges = ranges;
    in.workload = w_1d;
    in.workload_factors = {w_1d};
    in.known_total = total;
    in.stripe_dim = 0;
    WallTimer timer;
    StatusOr<Vec> xhat = plan.Execute(env.x, scope, in);
    const double secs = timer.Elapsed();
    if (!xhat.ok()) {
      std::printf("%-4d %-18s %-34s %-9s %12s\n", id, plan.name().c_str(),
                  plan.signature().c_str(), MatrixModeName(mode), "FAILED");
      return;
    }
    std::vector<double> warm_secs;
    for (int r = 0; warm && r < kWarmRepeats; ++r) {
      HistEnv again(*hist, dims, eps, 4000 + id, &rng, mode);
      BudgetScope again_scope(eps);
      WallTimer t;
      if (!plan.Execute(again.x, again_scope, in).ok()) break;
      warm_secs.push_back(t.Elapsed());
    }
    const double err = ScaledWorkloadError(*err_w, *xhat, *hist);
    std::printf("%-4d %-18s %-34s %-9s %12.3e %8.3f %9.4f\n", id,
                plan.name().c_str(), plan.signature().c_str(),
                MatrixModeName(mode), err, env.kernel.BudgetConsumed(),
                secs);
    json.StartRecord();
    json.Field("kind", "plan");
    json.Field("plan", plan.name());
    json.Field("signature", plan.signature());
    json.Field("mode", MatrixModeName(mode));
    json.Field("seconds", secs);
    if (warm_secs.size() == kWarmRepeats) {
      std::sort(warm_secs.begin(), warm_secs.end());
      json.Field("seconds_warm", warm_secs[kWarmRepeats / 2]);
    }
    json.Field("scaled_error", err);
    json.Field("budget", env.kernel.BudgetConsumed());
  };

  const std::vector<const Plan*> catalog = PlanRegistry::Global().Catalog();
  for (const Plan* plan : catalog) row(*plan, MatrixMode::kImplicit, false);

  // Representation sweep (Sec. 10.2): the same plan logic under dense and
  // sparse physical matrices — the MaterializeSparse/MaterializeDense-heavy
  // paths the blocked core accelerates.  Plans opt in via mode_sweep.
  for (MatrixMode mode : {MatrixMode::kDense, MatrixMode::kSparse})
    for (const Plan* plan : catalog)
      if (plan->mode_sweep()) row(*plan, mode, true);
  // The striped plans share one HB strategy across stripes; their sparse
  // rows time its preparation across repeated executions.
  for (const char* name : {"HB-Striped", "HB-Striped_kron"})
    row(PlanRegistry::Global().MustFind(name), MatrixMode::kSparse, true);

  // PrivBayes plans on a small multi-attribute table.
  {
    Rng drng(9);
    Table t = MakeCreditLike(&drng, 8000);
    auto w = AllKWayMarginals(t.schema(), 2);
    Vec x_true = t.Vectorize();
    auto pb = [&](const char* name, const char* sig, auto&& run) {
      ++id;
      ProtectedKernel kernel(t, eps, 4000 + id);
      WallTimer timer;
      auto xhat = run(&kernel);
      const double secs = timer.Elapsed();
      if (!xhat.ok()) {
        std::printf("%-4d %-18s %-34s %-9s %12s\n", id, name, sig,
                    "implicit", "FAILED");
        return;
      }
      const double err = ScaledWorkloadError(*w, *xhat, x_true);
      std::printf("%-4d %-18s %-34s %-9s %12.3e %8.3f %9.4f\n", id, name,
                  sig, "implicit", err, kernel.BudgetConsumed(), secs);
      json.StartRecord();
      json.Field("kind", "plan");
      json.Field("plan", name);
      json.Field("signature", sig);
      json.Field("mode", "implicit");
      json.Field("seconds", secs);
      json.Field("scaled_error", err);
      json.Field("budget", kernel.BudgetConsumed());
    };
    pb("PrivBayesLS", "SPB LM LS", [&](ProtectedKernel* k) {
      return RunPrivBayesLsPlan(k, t.schema(), eps, &rng);
    });
  }

  // Operator-core micro-baselines: blocked engine vs the pre-refactor
  // per-column strategy, on a structure-free (opaque) operator so the
  // generic fallback is what is measured.
  {
    auto kron = MakeKronecker(MakePrefixOp(256), MakeWaveletOp(8));
    auto kron_opaque = std::make_shared<OpaqueOp>(kron);

    // The fallback's real clients are composed operators with no direct
    // construction — a lazy Gram is the canonical one.  Old fallback: one
    // basis vector and one composed apply per column; new: identity
    // panels through the blocked pipeline + counting-sort CSR assembly.
    LinOpPtr lazy_gram = kron_opaque->Gram();
    WallTimer t1;
    CsrMatrix base = PercolumnMaterialize(*lazy_gram);
    const double percol_s = t1.Elapsed();
    WallTimer t2;
    CsrMatrix blocked = lazy_gram->MaterializeSparse();
    const double blocked_s = t2.Elapsed();
    std::printf(
        "\nmaterialize fallback (lazy Gram of Kron(Prefix(256),Wavelet(8))): "
        "per-column %.4fs -> blocked %.4fs (%.2fx), nnz %zu/%zu\n",
        percol_s, blocked_s, percol_s / blocked_s, base.nnz(),
        blocked.nnz());
    json.StartRecord();
    json.Field("kind", "core");
    json.Field("bench", "materialize_sparse_fallback");
    json.Field("operator", "Gram(Kron(Prefix(256),Wavelet(8)))");
    json.Field("baseline_percolumn_seconds", percol_s);
    json.Field("blocked_seconds", blocked_s);
    json.Field("speedup", percol_s / blocked_s);
    WallTimer t5;
    CsrMatrix kg_base = PercolumnGramSparse(*kron_opaque);
    const double kron_percol_s = t5.Elapsed();
    WallTimer t6;
    CsrMatrix kg_new = GramSparse(*kron);
    const double kron_new_s = t6.Elapsed();
    std::printf(
        "gram (Kron(Prefix(256),Wavelet(8))): per-column %.4fs -> "
        "structured Gram() %.4fs (%.2fx), nnz %zu/%zu\n",
        kron_percol_s, kron_new_s, kron_percol_s / kron_new_s,
        kg_base.nnz(), kg_new.nnz());
    json.StartRecord();
    json.Field("kind", "core");
    json.Field("bench", "gram_sparse_kron");
    json.Field("operator", "Kron(Prefix(256),Wavelet(8))");
    json.Field("baseline_percolumn_seconds", kron_percol_s);
    json.Field("blocked_seconds", kron_new_s);
    json.Field("speedup", kron_percol_s / kron_new_s);
  }

  if (json.WriteFile("BENCH_plan_catalog.json"))
    std::printf("\nwrote BENCH_plan_catalog.json\n");

  std::printf(
      "\nAll rows spend exactly eps: every signature of Fig. 2 executes "
      "under the kernel's proof.\n");
  return 0;
}
