// PlanRegistry catalog tests: every Fig. 2 catalog plan is registered and
// — driven from the registry, not a hand-maintained list — executable by
// name through Plan::Execute(ProtectedVector, BudgetScope) within its
// budget; malformed shapes are refused before anything is charged.
#include "data/generators.h"
#include "gtest/gtest.h"
#include "plans/plans.h"
#include "plans/registry.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

struct Env {
  ProtectedKernel kernel;
  ProtectedVector x;

  Env(const Vec& hist, double eps, uint64_t seed)
      : kernel(TableFromHistogram(hist, "v"), eps, seed),
        x(&kernel, kernel.TVectorize(kernel.root()).value()) {}
};

TEST(RegistryTest, CatalogContainsAllFig2Plans) {
  auto& registry = PlanRegistry::Global();
  for (const char* name :
       {"Identity", "Privelet", "H2", "HB", "Greedy-H", "Uniform", "MWEM",
        "MWEM variant b", "MWEM variant c", "MWEM variant d", "AHP", "DAWA",
        "HDMM", "Workload", "WorkloadLS", "QuadTree", "UniformGrid",
        "AdaptiveGrid", "DAWA-Striped", "HB-Striped", "HB-Striped_kron"}) {
    const Plan* plan = registry.Find(name);
    ASSERT_NE(plan, nullptr) << name;
    EXPECT_EQ(plan->name(), name);
    EXPECT_FALSE(plan->signature().empty()) << name;
  }
  EXPECT_EQ(registry.Find("NoSuchPlan"), nullptr);
}

TEST(RegistryTest, DuplicateRegistrationRejected) {
  auto& registry = PlanRegistry::Global();
  Status st = registry.Register(MakeIdentityPlan());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, EveryCatalogPlanExecutesOnBudget) {
  Rng rng(42);
  const double eps = 0.5;

  // 1D environment.
  const std::size_t n = 256;
  Vec hist1d = MakeHistogram1D(Shape1D::kGaussianMix, n, 2e4, &rng);
  auto ranges = RandomRanges(60, n, 64, &rng);
  LinOpPtr w_op = RangeQueryOp(ranges, n);
  const double total = Sum(hist1d);

  // 2D environment.
  const std::size_t side = 16;
  Vec hist2d = MakeHistogram2D(side, side, 2e4, &rng);

  // Multi-dim (striped) environment.
  const std::vector<std::size_t> dims3 = {32, 4, 2};
  Vec hist3 = MakeHistogram1D(Shape1D::kStep, 32 * 8, 2e4, &rng);

  uint64_t seed = 9000;
  for (const Plan* plan : PlanRegistry::Global().Catalog()) {
    SCOPED_TRACE(plan->name());
    const Vec* hist = &hist1d;
    std::vector<std::size_t> dims = {n};
    switch (plan->domain()) {
      case DomainKind::k1D:
        break;
      case DomainKind::k2D:
        hist = &hist2d;
        dims = {side, side};
        break;
      case DomainKind::kMultiDim:
        hist = &hist3;
        dims = dims3;
        break;
    }
    ++seed;

    // Every input any catalog plan reads; each plan ignores the rest.
    Env env(*hist, eps, seed);
    BudgetScope scope(eps);
    PlanInput in;
    in.dims = dims;
    in.rng = &rng;
    in.ranges = ranges;
    in.workload = w_op;
    in.workload_factors = {w_op};
    in.known_total = total;
    in.stripe_dim = 0;
    StatusOr<Vec> xhat = plan->Execute(env.x, scope, in);
    ASSERT_TRUE(xhat.ok()) << xhat.status().ToString();
    EXPECT_EQ(xhat->size(), hist->size());
    // All catalog plans spend at most eps; AdaptiveGrid may spend less
    // when sparse blocks skip their level-2 refinement.
    EXPECT_LE(env.kernel.BudgetConsumed(), eps + 1e-9);
    EXPECT_GT(env.kernel.BudgetConsumed(), 0.0);
  }
}

TEST(RegistryTest, ExecuteByNameRejectsShapeMismatch) {
  Vec hist(32, 2.0);
  Env env(hist, 1.0, 77);
  const ProtectedVector& x = env.x;
  const Plan* quadtree = PlanRegistry::Global().Find("QuadTree");
  ASSERT_NE(quadtree, nullptr);
  BudgetScope scope(1.0);
  PlanInput in;
  in.dims = {32};  // 1D shape for a 2D plan
  EXPECT_FALSE(quadtree->Execute(x, scope, in).ok());
  // dims that do not multiply out to the vector size are rejected too.
  const Plan* identity = PlanRegistry::Global().Find("Identity");
  PlanInput bad;
  bad.dims = {16};
  EXPECT_FALSE(identity->Execute(x, scope, bad).ok());
  // A product that wraps around size_t to the vector size (2^64 + 32) is
  // an overflow, not a match.
  PlanInput wrapped;
  wrapped.dims = {(std::size_t{1} << 59) + 1, 32};
  EXPECT_FALSE(quadtree->Execute(x, scope, wrapped).ok());
  // And nothing was charged by the refused executions.
  EXPECT_DOUBLE_EQ(env.kernel.BudgetConsumed(), 0.0);
}

}  // namespace
}  // namespace ektelo
