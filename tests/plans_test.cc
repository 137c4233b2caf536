// End-to-end tests of the Fig. 2 plan catalog: every plan runs against a
// protected kernel, spends exactly its budget, and produces estimates with
// sane error; data-dependent plans beat data-independent ones on the data
// shapes they target; matrix mode does not change plan semantics.
#include <cmath>
#include <limits>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "matrix/implicit_ops.h"
#include "plans/case_studies.h"
#include "plans/plans.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

// A kernel over one histogram: the vector handle, the eps each plan run
// may spend (its BudgetScope), and the base input (dims, client rng).
struct Env {
  ProtectedKernel kernel;
  ProtectedVector x;
  double eps;
  PlanInput in;
  Vec x_true;
  Rng rng;

  Env(Vec hist, std::vector<std::size_t> dims, double eps, uint64_t seed,
      Rng* client_rng)
      : kernel(TableFromHistogram(hist, "v"), eps, seed),
        x(&kernel, kernel.TVectorize(kernel.root()).value()),
        eps(eps),
        x_true(std::move(hist)),
        rng(seed + 999) {
    in.dims = std::move(dims);
    in.rng = client_rng ? client_rng : &rng;
  }
};

const Plan& Registered(std::string_view name) {
  return PlanRegistry::Global().MustFind(name);
}

double ScaledErr(const Vec& xhat, const Vec& x_true) {
  return Rmse(xhat, x_true) / std::max(Sum(x_true), 1.0);
}

TEST(PlansTest, IdentityPlanUnbiasedAndOnBudget) {
  Rng rng(1);
  Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, 64, 5000.0, &rng);
  Env env(hist, {64}, 1.0, 11, &rng);
  BudgetScope scope(env.eps);
  auto xhat = Registered("Identity").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  EXPECT_NEAR(env.kernel.BudgetConsumed(), 1.0, 1e-9);
  EXPECT_LT(Rmse(*xhat, env.x_true), 3.0);  // noise scale 1/eps = 1
}

TEST(PlansTest, UniformPlanSpreadsTotal) {
  Rng rng(2);
  Vec hist(32, 10.0);
  Env env(hist, {32}, 5.0, 12, &rng);
  BudgetScope scope(env.eps);
  auto xhat = Registered("Uniform").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  // All cells should be (nearly) equal and close to 10.
  for (double v : *xhat) EXPECT_NEAR(v, (*xhat)[0], 1e-6);
  EXPECT_NEAR((*xhat)[0], 10.0, 1.0);
}

TEST(PlansTest, HierarchicalPlansBeatIdentityOnPrefixQueries) {
  // For CDF-style workloads, H2/HB answer long ranges with O(log n)
  // noisy nodes vs O(n) for Identity.
  Rng rng(3);
  const std::size_t n = 1024;
  Vec hist = MakeHistogram1D(Shape1D::kBimodal, n, 20000.0, &rng);
  auto prefix = MakePrefixOp(n);
  double err_id = 0.0, err_h2 = 0.0, err_hb = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    Env e1(hist, {n}, 0.1, 100 + t, &rng);
    Env e2(hist, {n}, 0.1, 200 + t, &rng);
    Env e3(hist, {n}, 0.1, 300 + t, &rng);
    BudgetScope s1(e1.eps), s2(e2.eps), s3(e3.eps);
    auto x1 = Registered("Identity").Execute(e1.x, s1, e1.in);
    auto x2 = Registered("H2").Execute(e2.x, s2, e2.in);
    auto x3 = Registered("HB").Execute(e3.x, s3, e3.in);
    ASSERT_TRUE(x1.ok() && x2.ok() && x3.ok());
    err_id += Rmse(prefix->Apply(*x1), prefix->Apply(e1.x_true));
    err_h2 += Rmse(prefix->Apply(*x2), prefix->Apply(e2.x_true));
    err_hb += Rmse(prefix->Apply(*x3), prefix->Apply(e3.x_true));
  }
  EXPECT_LT(err_h2, err_id);
  EXPECT_LT(err_hb, err_id);
}

TEST(PlansTest, PriveletErrorIsFlatAcrossRangeLengths) {
  // Privelet's signature property (Xiao et al.): range-query error grows
  // polylogarithmically with range length, whereas Identity's grows as
  // sqrt(length).  Compare the long-range/short-range error ratio.
  Rng rng(4);
  const std::size_t n = 1024;
  Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, n, 50000.0, &rng);
  auto long_q = RangeQueryOp({{0, n - 1}, {0, n / 2}, {n / 4, n - 1}}, n);
  auto short_q = RangeQueryOp({{0, 0}, {n / 2, n / 2}, {7, 8}}, n);
  double long_p = 0.0, short_p = 0.0, long_id = 0.0, short_id = 0.0;
  for (int t = 0; t < 8; ++t) {
    Env e1(hist, {n}, 0.1, 400 + t, &rng);
    Env e2(hist, {n}, 0.1, 500 + t, &rng);
    BudgetScope s1(e1.eps), s2(e2.eps);
    auto xp = Registered("Privelet").Execute(e1.x, s1, e1.in);
    auto xi = Registered("Identity").Execute(e2.x, s2, e2.in);
    ASSERT_TRUE(xp.ok() && xi.ok());
    long_p += Rmse(long_q->Apply(*xp), long_q->Apply(e1.x_true));
    short_p += Rmse(short_q->Apply(*xp), short_q->Apply(e1.x_true));
    long_id += Rmse(long_q->Apply(*xi), long_q->Apply(e2.x_true));
    short_id += Rmse(short_q->Apply(*xi), short_q->Apply(e2.x_true));
  }
  // Identity's long/short ratio ~ sqrt(n); Privelet's is polylog.
  EXPECT_LT(long_p / short_p, 0.3 * long_id / short_id);
  // And on the long ranges themselves Privelet should win outright.
  EXPECT_LT(long_p, long_id);
}

TEST(PlansTest, PriveletRejectsNonPowerOfTwo) {
  Rng rng(5);
  Vec hist(12, 1.0);
  Env env(hist, {12}, 1.0, 13, &rng);
  BudgetScope scope(env.eps);
  EXPECT_FALSE(Registered("Privelet").Execute(env.x, scope, env.in).ok());
}

TEST(PlansTest, GreedyHRunsAndIsAccurateOnItsWorkload) {
  Rng rng(6);
  const std::size_t n = 256;
  Vec hist = MakeHistogram1D(Shape1D::kStep, n, 10000.0, &rng);
  auto ranges = RandomRanges(100, n, 32, &rng);
  auto w_op = RangeQueryOp(ranges, n);
  Env env(hist, {n}, 0.5, 14, &rng);
  env.in.ranges = ranges;
  BudgetScope scope(env.eps);
  auto xhat = Registered("Greedy-H").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  EXPECT_NEAR(env.kernel.BudgetConsumed(), 0.5, 1e-9);
  EXPECT_LT(ScaledErr(w_op->Apply(*xhat), w_op->Apply(env.x_true)), 0.05);
}

TEST(PlansTest, DawaBeatsIdentityOnStepData) {
  // DAWA's partition exploits uniform regions (its design target).  The
  // scale keeps step boundaries detectable above the stage-1 noise, as in
  // DPBench's DAWA-favorable datasets.
  Rng rng(7);
  const std::size_t n = 512;
  Vec hist = MakeHistogram1D(Shape1D::kStep, n, 500000.0, &rng);
  auto ranges = RandomRanges(200, n, 64, &rng);
  auto w_op = RangeQueryOp(ranges, n);
  double err_dawa = 0.0, err_id = 0.0;
  for (int t = 0; t < 5; ++t) {
    Env e1(hist, {n}, 0.05, 600 + t, &rng);
    Env e2(hist, {n}, 0.05, 700 + t, &rng);
    e1.in.ranges = ranges;
    BudgetScope s1(e1.eps), s2(e2.eps);
    auto xd = Registered("DAWA").Execute(e1.x, s1, e1.in);
    auto xi = Registered("Identity").Execute(e2.x, s2, e2.in);
    ASSERT_TRUE(xd.ok() && xi.ok());
    EXPECT_NEAR(e1.kernel.BudgetConsumed(), 0.05, 1e-9);
    err_dawa += Rmse(w_op->Apply(*xd), w_op->Apply(e1.x_true));
    err_id += Rmse(w_op->Apply(*xi), w_op->Apply(e2.x_true));
  }
  EXPECT_LT(err_dawa, err_id);
}

TEST(PlansTest, AhpRunsOnBudgetAndNonNegative) {
  Rng rng(8);
  const std::size_t n = 256;
  Vec hist = MakeHistogram1D(Shape1D::kSparseSpikes, n, 5000.0, &rng);
  Env env(hist, {n}, 0.2, 15, &rng);
  BudgetScope scope(env.eps);
  auto xhat = Registered("AHP").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  EXPECT_NEAR(env.kernel.BudgetConsumed(), 0.2, 1e-9);
  for (double v : *xhat) EXPECT_GE(v, -1e-9);
}

TEST(PlansTest, MwemImprovesWithRounds) {
  Rng rng(9);
  const std::size_t n = 128;
  Vec hist = MakeHistogram1D(Shape1D::kClustered, n, 10000.0, &rng);
  auto ranges = RandomRanges(64, n, 32, &rng);
  auto w_op = RangeQueryOp(ranges, n);
  const double total = Sum(hist);
  double err1 = 0.0, err8 = 0.0;
  for (int t = 0; t < 3; ++t) {
    Env e1(hist, {n}, 0.5, 800 + t, &rng);
    Env e2(hist, {n}, 0.5, 900 + t, &rng);
    e1.in.ranges = e2.in.ranges = ranges;
    e1.in.known_total = e2.in.known_total = total;
    BudgetScope s1(e1.eps), s2(e2.eps);
    auto x1 = MakeMwemPlan({.rounds = 1})->Execute(e1.x, s1, e1.in);
    auto x8 = MakeMwemPlan({.rounds = 8})->Execute(e2.x, s2, e2.in);
    ASSERT_TRUE(x1.ok() && x8.ok());
    EXPECT_NEAR(e2.kernel.BudgetConsumed(), 0.5, 1e-9);
    err1 += Rmse(w_op->Apply(*x1), w_op->Apply(e1.x_true));
    err8 += Rmse(w_op->Apply(*x8), w_op->Apply(e2.x_true));
  }
  EXPECT_LT(err8, err1);
}

TEST(PlansTest, MwemVariantsRunOnBudget) {
  Rng rng(10);
  const std::size_t n = 128;
  Vec hist = MakeHistogram1D(Shape1D::kStep, n, 8000.0, &rng);
  auto ranges = RandomRanges(50, n, 32, &rng);
  const double total = Sum(hist);
  for (bool augment : {false, true}) {
    for (bool nnls : {false, true}) {
      Env env(hist, {n}, 0.4, 16 + (augment ? 1 : 0) + (nnls ? 2 : 0),
              &rng);
      env.in.ranges = ranges;
      env.in.known_total = total;
      BudgetScope scope(env.eps);
      auto xhat = MakeMwemPlan({.rounds = 5,
                                .augment_h2 = augment,
                                .nnls_inference = nnls})
                      ->Execute(env.x, scope, env.in);
      ASSERT_TRUE(xhat.ok()) << augment << nnls;
      EXPECT_NEAR(env.kernel.BudgetConsumed(), 0.4, 1e-9);
    }
  }
}

TEST(PlansTest, MwemRefusesNonFiniteTotalBeforeSpending) {
  Rng rng(12);
  const std::size_t n = 64;
  Vec hist = MakeHistogram1D(Shape1D::kStep, n, 4000.0, &rng);
  const auto ranges = RandomRanges(20, n, 16, &rng);
  for (const char* name :
       {"MWEM", "MWEM variant b", "MWEM variant c", "MWEM variant d"}) {
    Env env(hist, {n}, 0.4, 21, &rng);
    env.in.ranges = ranges;
    env.in.known_total = std::numeric_limits<double>::infinity();
    BudgetScope scope(env.eps);
    auto xhat = Registered(name).Execute(env.x, scope, env.in);
    ASSERT_FALSE(xhat.ok()) << name;
    EXPECT_EQ(xhat.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_EQ(scope.remaining(), env.eps) << name;
    EXPECT_EQ(env.kernel.BudgetConsumed(), 0.0) << name;
  }
}

TEST(PlansTest, HdmmAdaptsToWorkload) {
  Rng rng(11);
  const std::size_t n = 128;
  Vec hist = MakeHistogram1D(Shape1D::kGaussianMix, n, 10000.0, &rng);
  Env env(hist, {n}, 0.2, 17, &rng);
  env.in.workload_factors = {MakePrefixOp(n)};
  BudgetScope scope(env.eps);
  auto xhat = Registered("HDMM").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  EXPECT_NEAR(env.kernel.BudgetConsumed(), 0.2, 1e-9);
}

TEST(PlansTest, ModesAgreeStatistically) {
  // Same seed => identical kernel noise => (near-)identical estimates
  // across dense/sparse/implicit modes, because representations are
  // lossless.
  Rng rng(12);
  const std::size_t n = 64;
  Vec hist = MakeHistogram1D(Shape1D::kUniform, n, 3000.0, &rng);
  Vec results[3];
  int k = 0;
  for (MatrixMode mode :
       {MatrixMode::kDense, MatrixMode::kSparse, MatrixMode::kImplicit}) {
    Env env(hist, {n}, 0.5, 4242, &rng);
    env.in.mode = mode;
    BudgetScope scope(env.eps);
    auto xhat = Registered("H2").Execute(env.x, scope, env.in);
    ASSERT_TRUE(xhat.ok());
    results[k++] = *xhat;
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(results[0][i], results[1][i], 1e-6);
    EXPECT_NEAR(results[1][i], results[2][i], 1e-6);
  }
}

// ------------------------------------------------------------- 2D plans

TEST(PlansTest, QuadtreePlan2D) {
  Rng rng(13);
  Vec hist = MakeHistogram2D(16, 16, 20000.0, &rng);
  Env env(hist, {16, 16}, 0.3, 18, &rng);
  BudgetScope scope(env.eps);
  auto xhat = Registered("QuadTree").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  EXPECT_NEAR(env.kernel.BudgetConsumed(), 0.3, 1e-9);
  EXPECT_LT(ScaledErr(*xhat, env.x_true), 0.01);
}

TEST(PlansTest, UniformGridPlan2D) {
  Rng rng(14);
  Vec hist = MakeHistogram2D(32, 32, 50000.0, &rng);
  Env env(hist, {32, 32}, 0.2, 19, &rng);
  BudgetScope scope(env.eps);
  auto xhat = Registered("UniformGrid").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  EXPECT_NEAR(env.kernel.BudgetConsumed(), 0.2, 1e-9);
}

TEST(PlansTest, AdaptiveGridPlan2DOnBudget) {
  Rng rng(15);
  Vec hist = MakeHistogram2D(32, 32, 100000.0, &rng);
  Env env(hist, {32, 32}, 0.2, 20, &rng);
  BudgetScope scope(env.eps);
  auto xhat = Registered("AdaptiveGrid").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  // Level-2 measurements run under parallel composition, so total spend
  // equals eps even though every block was measured.
  EXPECT_LE(env.kernel.BudgetConsumed(), 0.2 + 1e-9);
}

TEST(PlansTest, GridPlansRejectNon2D) {
  Rng rng(16);
  Vec hist(16, 1.0);
  Env env(hist, {16}, 1.0, 21, &rng);
  for (const char* name : {"QuadTree", "UniformGrid"}) {
    BudgetScope scope(env.eps);
    EXPECT_FALSE(Registered(name).Execute(env.x, scope, env.in).ok());
  }
}

// -------------------------------------------------------- striped plans

TEST(PlansTest, HbStripedMatchesDomainAndBudget) {
  Rng rng(17);
  // 3D domain: stripe along dim 0 (size 32), rest 4 x 3.
  const std::vector<std::size_t> dims = {32, 4, 3};
  Vec hist = MakeHistogram1D(Shape1D::kRoughUniform, 32 * 12, 30000.0, &rng);
  Env env(hist, dims, 0.3, 22, &rng);
  BudgetScope scope(env.eps);
  auto xhat = Registered("HB-Striped").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  EXPECT_EQ(xhat->size(), hist.size());
  // Parallel composition: full eps per stripe, max = eps.
  EXPECT_NEAR(env.kernel.BudgetConsumed(), 0.3, 1e-9);
}

TEST(PlansTest, HbStripedKronEquivalentStructure) {
  Rng rng(18);
  const std::vector<std::size_t> dims = {16, 3, 2};
  Vec hist = MakeHistogram1D(Shape1D::kStep, 16 * 6, 20000.0, &rng);
  Env env(hist, dims, 0.3, 23, &rng);
  BudgetScope scope(env.eps);
  auto xhat = Registered("HB-Striped_kron").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  EXPECT_NEAR(env.kernel.BudgetConsumed(), 0.3, 1e-9);
  EXPECT_EQ(xhat->size(), hist.size());
}

TEST(PlansTest, DawaStripedRunsOnBudget) {
  Rng rng(19);
  const std::vector<std::size_t> dims = {64, 2, 2};
  Vec hist = MakeHistogram1D(Shape1D::kStep, 64 * 4, 40000.0, &rng);
  Env env(hist, dims, 0.2, 24, &rng);
  BudgetScope scope(env.eps);
  auto xhat = Registered("DAWA-Striped").Execute(env.x, scope, env.in);
  ASSERT_TRUE(xhat.ok());
  EXPECT_NEAR(env.kernel.BudgetConsumed(), 0.2, 1e-9);
}

// ------------------------------------------------------------- Alg. 1

TEST(PlansTest, CdfEstimatorEndToEnd) {
  // Build the paper's table: schema [age, sex, salary]; estimate the CDF
  // of salary for males in their 30s.
  Rng rng(20);
  Table t(Schema({{"age", 100}, {"sex", 2}, {"salary", 64}}));
  // Target group: sex=1, age in [30,39], salaries concentrated mid-range.
  for (int i = 0; i < 4000; ++i) {
    uint32_t age = static_cast<uint32_t>(rng.UniformInt(0, 99));
    uint32_t sex = static_cast<uint32_t>(rng.UniformInt(0, 1));
    double s = rng.Normal(32.0, 8.0);
    uint32_t sal = static_cast<uint32_t>(std::clamp(s, 0.0, 63.0));
    t.AppendRow({age, sex, sal});
  }
  Vec true_hist =
      t.Where(Predicate::True()
                  .And("sex", CmpOp::kEq, 1)
                  .And("age", CmpOp::kGe, 30)
                  .And("age", CmpOp::kLe, 39))
          .Select({"salary"})
          .Vectorize();
  Vec true_cdf = MakePrefixOp(64)->Apply(true_hist);

  ProtectedKernel kernel(t, 2.0, 77);
  CdfPlanOptions opts;
  opts.filter = Predicate::True()
                    .And("sex", CmpOp::kEq, 1)
                    .And("age", CmpOp::kGe, 30)
                    .And("age", CmpOp::kLe, 39);
  opts.value_attr = "salary";
  opts.eps = 2.0;
  auto cdf = RunCdfEstimatorPlan(&kernel, opts);
  ASSERT_TRUE(cdf.ok());
  EXPECT_NEAR(kernel.BudgetConsumed(), 2.0, 1e-9);
  ASSERT_EQ(cdf->size(), 64u);
  // CDF is a prefix sum of non-negative estimates => non-decreasing.
  for (std::size_t i = 1; i < 64; ++i)
    EXPECT_GE((*cdf)[i], (*cdf)[i - 1] - 1e-9);
  // And reasonably close to the truth.
  EXPECT_LT(Rmse(*cdf, true_cdf) / std::max(true_cdf[63], 1.0), 0.2);
}

TEST(PlansTest, BudgetExhaustionStopsPlans) {
  Rng rng(21);
  Vec hist(32, 5.0);
  Env env(hist, {32}, 0.1, 25, &rng);
  const Plan& identity = Registered("Identity");
  BudgetScope first(env.eps), second(env.eps);
  ASSERT_TRUE(identity.Execute(env.x, first, env.in).ok());
  // Second run: its own scope allows eps, but the kernel has none left.
  auto denied = identity.Execute(env.x, second, env.in);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kBudgetExhausted);
}

}  // namespace
}  // namespace ektelo
