// Structural-equivalence tests for the striped plans' documented
// optimizations: solving per-stripe least squares equals the global
// stacked solve (no measurement crosses stripes), and the exact tree
// solver remains correct on non-binary branching factors.
#include <cmath>

#include "gtest/gtest.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/lsmr.h"
#include "ops/hierarchy.h"
#include "ops/inference.h"
#include "ops/partition_select.h"
#include "ops/selection.h"
#include "util/rng.h"

namespace ektelo {
namespace {

TEST(StripedEquivalenceTest, PerStripeLsEqualsGlobalStackedLs) {
  // 3 stripes of 16 cells, HB measurements per stripe with iid noise: the
  // global stacked system must decompose into independent per-stripe
  // solves (the optimization the HB-Striped plan relies on).
  Rng rng(1);
  const std::size_t ns = 16, stripes = 3, n = ns * stripes;
  Partition part = StripePartition({ns, stripes}, 0);
  auto groups = part.Groups();
  auto hb = HbSelect(ns);
  const std::size_t rows = hb->rows();

  // Noisy answers per stripe.
  Vec x_true(n);
  for (auto& v : x_true) v = std::floor(rng.Uniform(0.0, 30.0));
  std::vector<Vec> ys;
  for (std::size_t s = 0; s < stripes; ++s) {
    Vec local(ns);
    for (std::size_t k = 0; k < ns; ++k) local[k] = x_true[groups[s][k]];
    Vec y = hb->Apply(local);
    for (auto& v : y) v += rng.Laplace(2.0);
    ys.push_back(std::move(y));
  }

  // (a) per-stripe solves, scattered.
  Vec per_stripe(n, 0.0);
  for (std::size_t s = 0; s < stripes; ++s) {
    MeasurementSet mset;
    mset.Add(hb, ys[s], 2.0);
    Vec local = LeastSquaresInference(mset);
    for (std::size_t k = 0; k < ns; ++k)
      per_stripe[groups[s][k]] = local[k];
  }

  // (b) one global stacked system with scatter matrices.
  MeasurementSet global;
  for (std::size_t s = 0; s < stripes; ++s) {
    CsrMatrix local = hb->MaterializeSparse();
    std::vector<Triplet> t;
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t k = local.indptr()[i]; k < local.indptr()[i + 1];
           ++k)
        t.push_back({i, groups[s][local.indices()[k]], local.values()[k]});
    global.Add(MakeSparse(CsrMatrix::FromTriplets(rows, n, std::move(t))),
               ys[s], 2.0);
  }
  Vec stacked = LeastSquaresInference(global);

  for (std::size_t c = 0; c < n; ++c)
    EXPECT_NEAR(per_stripe[c], stacked[c], 1e-5) << "cell " << c;
}

class TreeBranchingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeBranchingTest, TreeLsMatchesLsmrForAnyBranching) {
  const std::size_t b = GetParam();
  Rng rng(10 + b);
  for (std::size_t n : {9u, 16u, 27u, 30u}) {
    Hierarchy h = BuildHierarchy(n, b);
    auto op = HierarchyOp(h);
    Vec x_true(n);
    for (auto& v : x_true) v = std::floor(rng.Uniform(0.0, 20.0));
    Vec y = op->Apply(x_true);
    for (auto& v : y) v += rng.Laplace(1.0);
    Vec tree = TreeBasedLeastSquares(h, y);
    Vec lsmr = Lsmr(*op, y).x;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(tree[i], lsmr[i], 1e-5) << "b=" << b << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Branchings, TreeBranchingTest,
                         ::testing::Values(2, 3, 4, 5));

TEST(StripedEquivalenceTest, KronMeasurementEqualsPerStripeMeasurement) {
  // Kron(HB, I) answers on the full vector equal per-stripe HB answers
  // on the stripe sub-vectors (the HB-Striped_kron identity).
  Rng rng(2);
  const std::size_t ns = 8, rest = 4, n = ns * rest;
  Vec x(n);
  for (auto& v : x) v = rng.Uniform(0.0, 10.0);
  auto hb = HbSelect(ns);
  auto kron = MakeKronecker(hb, MakeIdentityOp(rest));
  Vec global = kron->Apply(x);
  Partition part = StripePartition({ns, rest}, 0);
  auto groups = part.Groups();
  for (std::size_t s = 0; s < rest; ++s) {
    Vec local(ns);
    for (std::size_t k = 0; k < ns; ++k) local[k] = x[groups[s][k]];
    Vec y = hb->Apply(local);
    for (std::size_t r = 0; r < y.size(); ++r)
      EXPECT_NEAR(global[r * rest + s], y[r], 1e-9);
  }
}

}  // namespace
}  // namespace ektelo
