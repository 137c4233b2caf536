// Registry-wide rewrite A/B: every catalog plan must produce the same
// result with the rewrite engine on as off — within 1e-9
// (relative) — with identical budget and an identical order-normalized
// kernel transcript (the privacy-relevant path is untouched by
// construction: measurement operators are applied and charged as
// authored).
//
// Plans whose stacks the rewriter cannot change are bitwise-equal; the
// MWEM family (merged measurement unions feeding iterative solvers)
// agrees to solver-roundoff, which the 1e-9 bar covers because the MWEM
// NNLS variants solve to a tight fixed tolerance.
#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "matrix/rewrite.h"
#include "plans/pipeline.h"
#include "plans/registry.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

struct RunResult {
  Vec xhat;
  bool ok = false;
  std::string error;
  double budget = 0.0;
  std::vector<std::tuple<std::string, double, double>> transcript;
};

RunResult RunPlan(const Plan& plan, bool rewrite) {
  SetRewriteEnabled(rewrite);
  // Each mode starts cold: no strategy prepared by the other mode's run
  // leaks across.
  ClearPreparedStrategies();

  const double eps = 0.5;
  Rng rng(31);  // identical environment for every mode
  Vec hist;
  std::vector<std::size_t> dims;
  switch (plan.domain()) {
    case DomainKind::k1D:
      dims = {64};
      hist = MakeHistogram1D(Shape1D::kGaussianMix, 64, 2000.0, &rng);
      break;
    case DomainKind::k2D:
      dims = {8, 8};
      hist = MakeHistogram2D(8, 8, 2000.0, &rng);
      break;
    case DomainKind::kMultiDim:
      dims = {16, 2, 2};
      hist = MakeHistogram1D(Shape1D::kStep, 64, 2000.0, &rng);
      break;
  }
  const std::size_t n = hist.size();
  auto ranges = RandomRanges(20, n, 16, &rng);
  auto w = RangeQueryOp(ranges, n);

  ProtectedKernel kernel(TableFromHistogram(hist, "v"), eps, 515151);
  ProtectedTable root = ProtectedTable::Root(&kernel);
  auto x = root.Vectorize();
  EK_CHECK(x.ok());
  BudgetScope scope(eps);
  Rng client_rng(7);
  PlanInput in;
  in.dims = dims;
  in.ranges = ranges;
  in.workload = w;
  in.workload_factors = {w};
  in.known_total = Sum(hist);
  in.rng = &client_rng;
  in.stripe_dim = 0;

  RunResult r;
  StatusOr<Vec> xhat = plan.Execute(*x, scope, in);
  r.ok = xhat.ok();
  if (!r.ok) {
    r.error = xhat.status().ToString();
    return r;
  }
  r.xhat = std::move(*xhat);
  r.budget = kernel.BudgetConsumed();
  for (const auto& e : kernel.transcript())
    r.transcript.emplace_back(e.op, e.eps, e.noise_scale);
  std::sort(r.transcript.begin(), r.transcript.end());
  return r;
}

void ExpectAgree(const RunResult& base, const RunResult& other, double tol) {
  ASSERT_EQ(other.xhat.size(), base.xhat.size());
  for (std::size_t i = 0; i < base.xhat.size(); ++i) {
    const double scale = std::max(1.0, std::abs(base.xhat[i]));
    EXPECT_LE(std::abs(other.xhat[i] - base.xhat[i]), tol * scale)
        << "component " << i;
  }
  // The privacy path is untouched: same charges, same noise draws, same
  // (order-normalized) transcript rows.
  EXPECT_EQ(other.budget, base.budget);
  EXPECT_EQ(other.transcript, base.transcript);
}

TEST(RewriteEquivalenceTest, EveryPlanAgreesWithRewriteOff) {
  const std::vector<const Plan*> catalog = PlanRegistry::Global().Catalog();
  ASSERT_FALSE(catalog.empty());
  for (const Plan* plan : catalog) {
    SCOPED_TRACE(plan->name());
    const RunResult off = RunPlan(*plan, false);
    const RunResult rules = RunPlan(*plan, true);
    ASSERT_EQ(off.ok, rules.ok) << off.error << " / " << rules.error;
    if (!off.ok) continue;
    ExpectAgree(off, rules, 1e-9);
  }
  SetRewriteEnabled(true);
}

// The dense/sparse physical-representation sweep prepares its strategies
// once (PrepareStrategy); the rewrite-on run reuses what the rewrite-off
// run prepared, and the reuse must be invisible in the results.
TEST(RewriteEquivalenceTest, ModeSweepMatchesRewriteOff) {
  for (MatrixMode mode : {MatrixMode::kDense, MatrixMode::kSparse}) {
    for (const Plan* plan : PlanRegistry::Global().Catalog()) {
      if (!plan->mode_sweep()) continue;
      SCOPED_TRACE(plan->name() + std::string("/") + MatrixModeName(mode));
      auto run = [&](bool rewrite) {
        SetRewriteEnabled(rewrite);
        const double eps = 0.5;
        Rng rng(97);
        Vec hist = MakeHistogram1D(Shape1D::kStep, 32, 1500.0, &rng);
        auto ranges = RandomRanges(12, 32, 8, &rng);
        ProtectedKernel kernel(TableFromHistogram(hist, "v"), eps, 626262);
        ProtectedTable root = ProtectedTable::Root(&kernel);
        auto x = root.Vectorize();
        EK_CHECK(x.ok());
        BudgetScope scope(eps);
        PlanInput in;
        in.dims = {32};
        in.mode = mode;
        in.ranges = ranges;
        in.known_total = Sum(hist);
        StatusOr<Vec> xhat = plan->Execute(*x, scope, in);
        EK_CHECK(xhat.ok());
        return *xhat;
      };
      const Vec off = run(false);
      const Vec rules = run(true);
      ASSERT_EQ(rules.size(), off.size());
      for (std::size_t i = 0; i < off.size(); ++i)
        EXPECT_NEAR(rules[i], off[i], 1e-9 * std::max(1.0, std::abs(off[i])))
            << i;
    }
  }
  SetRewriteEnabled(true);
}

}  // namespace
}  // namespace ektelo
