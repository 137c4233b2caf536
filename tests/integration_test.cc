// Cross-module integration tests: the reduction wrapper (Sec. 8 end to
// end), multi-step kernel pipelines with mixed transformations, transcript
// bookkeeping across a whole plan, and statistical regression checks that
// plan errors match their analytic noise levels.
#include <cmath>

#include "data/csv.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "matrix/implicit_ops.h"
#include "ops/inference.h"
#include "ops/selection.h"
#include "plans/plans.h"
#include "plans/reduction_wrapper.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

// A kernel over one 1D histogram: the vector handle, the eps each plan
// run may spend (its BudgetScope), and the base input (dims, client rng).
struct Env {
  ProtectedKernel kernel;
  ProtectedVector x;
  double eps;
  PlanInput in;
  Vec x_true;

  Env(Vec hist, double eps, uint64_t seed, Rng* rng)
      : kernel(TableFromHistogram(hist, "v"), eps, seed),
        x(&kernel, kernel.TVectorize(kernel.root()).value()),
        eps(eps),
        in{.dims = {hist.size()}, .rng = rng},
        x_true(std::move(hist)) {}
};

const Plan& Registered(std::string_view name) {
  return PlanRegistry::Global().MustFind(name);
}

// Reduction body running the registered Identity plan on the reduced
// vector.
StatusOr<Vec> ReducedIdentity(const ProtectedVector& x, BudgetScope& scope,
                              const PlanInput& in, const Partition&) {
  return Registered("Identity").Execute(x, scope, in);
}

TEST(ReductionWrapperTest, PreservesWorkloadAnswersStructurally) {
  // On a workload that merges cells, the wrapped Identity plan answers
  // the workload as well as (or better than) the unwrapped plan.
  Rng rng(1);
  const std::size_t n = 1024;
  Vec hist = MakeHistogram1D(Shape1D::kClustered, n, 50000.0, &rng);
  auto ranges = RandomRanges(40, n, 64, &rng);  // sparse coverage
  auto w = RangeQueryOp(ranges, n);

  double err_plain = 0.0, err_wrapped = 0.0;
  for (int t = 0; t < 6; ++t) {
    Env e1(hist, 0.1, 100 + t, &rng);
    Env e2(hist, 0.1, 200 + t, &rng);
    BudgetScope s1(e1.eps), s2(e2.eps);
    auto x_plain = Registered("Identity").Execute(e1.x, s1, e1.in);
    auto x_wrapped =
        RunWithWorkloadReduction(e2.x, s2, e2.in, *w, ReducedIdentity);
    ASSERT_TRUE(x_plain.ok() && x_wrapped.ok());
    err_plain += Rmse(w->Apply(*x_plain), w->Apply(e1.x_true));
    err_wrapped += Rmse(w->Apply(*x_wrapped), w->Apply(e2.x_true));
  }
  // Thm 8.4 direction: reduction helps when the workload merges cells.
  EXPECT_LT(err_wrapped, err_plain);
}

TEST(ReductionWrapperTest, ExpandsToFullDomain) {
  Rng rng(2);
  Vec hist(64, 2.0);
  Env env(hist, 1.0, 3, &rng);
  auto w = RangeQueryOp({{0, 31}, {32, 63}}, 64);
  BudgetScope scope(env.eps);
  auto xhat = RunWithWorkloadReduction(
      env.x, scope, env.in, *w,
      [](const ProtectedVector& x, BudgetScope& s, const PlanInput& in,
         const Partition& p) {
        EXPECT_EQ(p.num_groups(), 2u);
        EXPECT_EQ(in.dims, std::vector<std::size_t>{2});
        return Registered("Identity").Execute(x, s, in);
      });
  ASSERT_TRUE(xhat.ok());
  EXPECT_EQ(xhat->size(), 64u);
  // Uniform expansion within the two groups.
  for (std::size_t i = 1; i < 32; ++i)
    EXPECT_DOUBLE_EQ((*xhat)[i], (*xhat)[0]);
}

TEST(ReductionWrapperTest, RejectsMismatchedWorkload) {
  Rng rng(3);
  Vec hist(16, 1.0);
  Env env(hist, 1.0, 4, &rng);
  BudgetScope scope(env.eps);
  auto w = RangeQueryOp({{0, 3}}, 8);  // wrong domain
  auto r = RunWithWorkloadReduction(env.x, scope, env.in, *w,
                                    ReducedIdentity);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Algorithm 4 draws from the client rng, so an unset one is refused.
  auto w16 = RangeQueryOp({{0, 3}}, 16);
  PlanInput no_rng = env.in;
  no_rng.rng = nullptr;
  r = RunWithWorkloadReduction(env.x, scope, no_rng, *w16, ReducedIdentity);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Neither refusal charged anything.
  EXPECT_DOUBLE_EQ(env.kernel.BudgetConsumed(), 0.0);
}

TEST(IntegrationTest, ChainedTransformStabilityComposes) {
  // Where(1) -> GroupBy(2) -> Vectorize(1) -> VTransform(3) should charge
  // 1*2*1*3 = 6x the measurement eps at the root.
  Table t(Schema({{"a", 4}, {"b", 3}}));
  for (uint32_t i = 0; i < 24; ++i) t.AppendRow({i % 4, i % 3});
  ProtectedKernel k(std::move(t), 10.0, 5);
  auto w = k.TWhere(k.root(), Predicate::True().And("a", CmpOp::kLe, 2));
  auto g = k.TGroupBy(*w, {"a"});
  auto x = k.TVectorize(*g);
  // 3-stable transform: each output sums three cells scaled by 3... use a
  // matrix with max column L1 norm 3.
  DenseMatrix m(1, 12);
  for (int j = 0; j < 1; ++j) m.At(0, 0) = 3.0;
  auto y = k.VTransform(*x, MakeDense(m));
  ASSERT_TRUE(y.ok());
  ASSERT_TRUE(k.VectorLaplace(*y, *MakeIdentityOp(1), 0.1).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.1 * 1 * 2 * 1 * 3, 1e-9);
}

TEST(IntegrationTest, TranscriptCoversWholePlan) {
  Rng rng(6);
  Vec hist = MakeHistogram1D(Shape1D::kStep, 128, 5000.0, &rng);
  Env env(hist, 0.2, 7, &rng);
  env.in.ranges = RandomRanges(50, 128, 32, &rng);
  BudgetScope scope(env.eps);
  auto xhat = Registered("DAWA").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  // DAWA = partition measurement + strategy measurement.
  ASSERT_EQ(env.kernel.transcript().size(), 2u);
  double eps_sum = 0.0;
  for (const auto& e : env.kernel.transcript()) eps_sum += e.eps;
  EXPECT_NEAR(eps_sum, 0.2, 1e-9);
}

TEST(IntegrationTest, IdentityPlanErrorMatchesAnalyticNoise) {
  // Identity at eps: per-cell Laplace(1/eps), RMSE should be ~sqrt(2)/eps.
  const double eps = 0.5;
  const std::size_t n = 512;
  Rng rng(8);
  Vec hist = MakeHistogram1D(Shape1D::kUniform, n, 10000.0, &rng);
  double rmse_acc = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    Env env(hist, eps, 1000 + t, &rng);
    BudgetScope scope(env.eps);
    auto xhat = Registered("Identity").Execute(env.x, scope, env.in);
    ASSERT_TRUE(xhat.ok());
    rmse_acc += Rmse(*xhat, env.x_true);
  }
  const double expected = std::sqrt(2.0) / eps;
  EXPECT_NEAR(rmse_acc / trials, expected, 0.25 * expected);
}

TEST(IntegrationTest, UniformPlanErrorMatchesAnalyticNoise) {
  // Uniform: total measured at eps, spread over n cells; per-cell RMSE of
  // the noise component ~ sqrt(2)/(eps n) for uniform data.
  const double eps = 0.5;
  const std::size_t n = 256;
  Vec hist(n, 20.0);
  Rng rng(9);
  double rmse_acc = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    Env env(hist, eps, 2000 + t, &rng);
    BudgetScope scope(env.eps);
    auto xhat = Registered("Uniform").Execute(env.x, scope, env.in);
    ASSERT_TRUE(xhat.ok());
    rmse_acc += Rmse(*xhat, env.x_true);
  }
  const double expected = std::sqrt(2.0) / (eps * double(n));
  EXPECT_NEAR(rmse_acc / trials, expected, 0.5 * expected);
}

TEST(IntegrationTest, EpsErrorTradeoffIsMonotone) {
  // More budget, less error (checked on averages across seeds).
  Rng rng(10);
  const std::size_t n = 256;
  Vec hist = MakeHistogram1D(Shape1D::kBimodal, n, 20000.0, &rng);
  auto prefix = MakePrefixOp(n);
  Vec errs;
  for (double eps : {0.01, 0.1, 1.0}) {
    double acc = 0.0;
    for (int t = 0; t < 8; ++t) {
      Env env(hist, eps, 3000 + t, &rng);
      BudgetScope scope(env.eps);
      auto xhat = Registered("H2").Execute(env.x, scope, env.in);
      ASSERT_TRUE(xhat.ok());
      acc += Rmse(prefix->Apply(*xhat), prefix->Apply(env.x_true));
    }
    errs.push_back(acc);
  }
  EXPECT_GT(errs[0], errs[1]);
  EXPECT_GT(errs[1], errs[2]);
}

TEST(IntegrationTest, PlanComposesWithPartitionSubplans) {
  // Split the domain, run different subplans per part, stitch with global
  // inference — the freedom the client/kernel split is designed for.
  Rng rng(11);
  const std::size_t n = 256;
  Vec hist = MakeHistogram1D(Shape1D::kSparseSpikes, n, 20000.0, &rng);
  Env env(hist, 0.4, 12, &rng);
  Partition halves = Partition::FromIntervals({0, n / 2}, n);
  auto children = env.kernel.VSplitByPartition(env.x.id(), halves);
  ASSERT_TRUE(children.ok());
  MeasurementSet mset;
  // Left half: identity; right half: H2.  Both full eps in parallel.
  {
    auto m = IdentitySelect(n / 2);
    auto y = env.kernel.VectorLaplace((*children)[0], *m, 0.4);
    ASSERT_TRUE(y.ok());
    // Map to full domain: columns 0..n/2.
    std::vector<Triplet> t;
    for (std::size_t i = 0; i < n / 2; ++i) t.push_back({i, i, 1.0});
    mset.Add(MakeSparse(CsrMatrix::FromTriplets(n / 2, n, std::move(t))),
             *y, 1.0 / 0.4);
  }
  {
    auto m = H2Select(n / 2);
    auto y = env.kernel.VectorLaplace((*children)[1], *m, 0.4);
    ASSERT_TRUE(y.ok());
    CsrMatrix local = m->MaterializeSparse();
    std::vector<Triplet> t;
    for (std::size_t i = 0; i < local.rows(); ++i)
      for (std::size_t k = local.indptr()[i]; k < local.indptr()[i + 1];
           ++k)
        t.push_back({i, n / 2 + local.indices()[k], local.values()[k]});
    mset.Add(MakeSparse(CsrMatrix::FromTriplets(local.rows(), n,
                                                std::move(t))),
             *y, m->SensitivityL1() / 0.4);
  }
  EXPECT_NEAR(env.kernel.BudgetConsumed(), 0.4, 1e-9);
  Vec xhat = LeastSquaresInference(mset);
  // Loose sanity cap on the seeded noise draw (the load-bearing assertion
  // is the parallel-composition budget above); sized for the per-source
  // noise streams' draws at this seed with margin.
  EXPECT_LT(Rmse(xhat, env.x_true), 22.0);
}

TEST(IntegrationTest, CsvToDpPipeline) {
  // Full pipeline: CSV text -> protected kernel -> DP estimate.
  Schema schema({{"v", 8}});
  std::string csv = "v\n";
  for (int i = 0; i < 80; ++i) csv += std::to_string(i % 8) + "\n";
  auto table = TableFromCsv(csv, schema);
  ASSERT_TRUE(table.ok());
  ProtectedKernel kernel(*table, 5.0, 13);
  auto x = kernel.TVectorize(kernel.root());
  auto y = kernel.VectorLaplace(*x, *MakeIdentityOp(8), 5.0);
  ASSERT_TRUE(y.ok());
  for (double v : *y) EXPECT_NEAR(v, 10.0, 5.0);
}

}  // namespace
}  // namespace ektelo
