// Tests for the newer operator paths: heteroscedastic / volume-normalized
// DAWA partition selection, the bias correction itself, PrivBayes
// synthetic sampling, the Workload plan baseline, and the flattened
// ("basic sparse") striped Kronecker ablation.
#include <cmath>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "matrix/implicit_ops.h"
#include "ops/partition_select.h"
#include "ops/privbayes.h"
#include "plans/plans.h"
#include "plans/striped_plans.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

TEST(DawaCorrectionTest, UncorrectedDpFragmentsUniformNoise) {
  // Pure-noise "uniform" data: without bias correction the DP sees fake
  // deviation and refuses to merge; with correction it merges heavily.
  Rng rng(1);
  const std::size_t n = 256;
  Vec noisy(n);
  for (auto& v : noisy) v = 10.0 + rng.Laplace(5.0);
  Partition uncorrected = DawaIntervalPartition(noisy, 5.0, 0.0);
  Partition corrected = DawaIntervalPartition(noisy, 5.0, 5.0);
  EXPECT_LT(corrected.num_groups(), uncorrected.num_groups() / 2);
}

TEST(DawaCorrectionTest, CorrectionPreservesRealStructure) {
  // Two well-separated levels with mild noise: the corrected DP must
  // still cut at the boundary.
  Rng rng(2);
  const std::size_t n = 128;
  Vec noisy(n);
  for (std::size_t i = 0; i < n; ++i)
    noisy[i] = (i < n / 2 ? 10.0 : 500.0) + rng.Laplace(5.0);
  Partition p = DawaIntervalPartition(noisy, 5.0, 5.0);
  EXPECT_NE(p.group_of(0), p.group_of(n - 1));
  EXPECT_LE(p.num_groups(), 8u);
}

TEST(DawaHeteroscedasticTest, PerCellScalesMatchScalarWhenUniform) {
  Rng rng(3);
  Vec noisy(64);
  for (auto& v : noisy) v = rng.Uniform(0.0, 100.0);
  Partition a = DawaIntervalPartition(noisy, 2.0, 3.0);
  Partition b = DawaIntervalPartition(noisy, 2.0, Vec(64, 3.0));
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(a.group_of(i), b.group_of(i));
}

TEST(DawaVolumeTest, NormalizationRecoversDensityStructure) {
  // Cells are pre-merged groups: volumes {1, 2, 4, ...} with constant
  // density 10.  Raw sums look wildly non-uniform; density-normalized
  // selection should merge everything into few groups.
  const std::size_t n = 32;
  Vec volumes(n), sums(n);
  Rng rng(4);
  for (std::size_t i = 0; i < n; ++i) {
    volumes[i] = double(1 + (i % 5));
    sums[i] = 10.0 * volumes[i];
  }
  Table t(Schema({{"v", n}}));
  for (std::size_t i = 0; i < n; ++i)
    for (int c = 0; c < int(sums[i]); ++c)
      t.AppendRow({uint32_t(i)});
  // Raw: fragments.
  ProtectedKernel k1(t, 100.0, 5);
  auto x1 = k1.TVectorize(k1.root());
  auto raw = DawaPartitionSelect(&k1, *x1, 50.0);
  ASSERT_TRUE(raw.ok());
  // Normalized: merges.
  ProtectedKernel k2(t, 100.0, 6);
  auto x2 = k2.TVectorize(k2.root());
  DawaOptions opts;
  opts.cell_volumes = volumes;
  auto norm = DawaPartitionSelect(&k2, *x2, 50.0, opts);
  ASSERT_TRUE(norm.ok());
  EXPECT_LT(norm->num_groups(), raw->num_groups());
  EXPECT_LE(norm->num_groups(), 4u);
}

TEST(PrivBayesSamplingTest, SampleHistogramHasRightMassAndSupport) {
  Rng rng(7);
  Table t(Schema({{"a", 3}, {"b", 3}}));
  for (int i = 0; i < 3000; ++i) {
    uint32_t a = uint32_t(rng.UniformInt(0, 2));
    t.AppendRow({a, a});  // b == a
  }
  ProtectedKernel kernel(t, 500.0, 8);
  auto res = PrivBayesSelectAndMeasure(&kernel, kernel.root(), t.schema(),
                                       500.0, &rng);
  ASSERT_TRUE(res.ok());
  Vec hist = PrivBayesSampleEstimate(t.schema(), *res, &rng);
  ASSERT_EQ(hist.size(), 9u);
  EXPECT_NEAR(Sum(hist), 3000.0, 30.0);
  for (double v : hist) EXPECT_GE(v, 0.0);
  // Diagonal structure (b == a) should dominate the sample.
  double diag = hist[0] + hist[4] + hist[8];
  EXPECT_GT(diag, 0.9 * Sum(hist));
}

TEST(PrivBayesSamplingTest, SampleVarianceExceedsProductEstimate) {
  // Against the exact table, the sampled release is (weakly) noisier
  // than the expected-product release — the Table 5 fidelity point.
  Rng rng(9);
  Table t = MakeCreditLike(&rng, 4000);
  double err_product = 0.0, err_sample = 0.0;
  Vec x_true = t.Vectorize();
  for (int trial = 0; trial < 3; ++trial) {
    ProtectedKernel kernel(t, 50.0, 10 + trial);
    auto res = PrivBayesSelectAndMeasure(&kernel, kernel.root(),
                                         t.schema(), 50.0, &rng);
    ASSERT_TRUE(res.ok());
    err_product += Rmse(PrivBayesProductEstimate(t.schema(), *res), x_true);
    err_sample +=
        Rmse(PrivBayesSampleEstimate(t.schema(), *res, &rng), x_true);
  }
  EXPECT_GE(err_sample, err_product);
}

TEST(WorkloadPlanTest, MeasuresWorkloadDirectly) {
  Rng rng(11);
  const std::size_t n = 64;
  Vec hist = MakeHistogram1D(Shape1D::kUniform, n, 5000.0, &rng);
  ProtectedKernel kernel(TableFromHistogram(hist, "v"), 1.0, 12);
  ProtectedVector x(&kernel, *kernel.TVectorize(kernel.root()));
  auto w = MarginalWorkload(Schema({{"v", n}}), {"v"});
  BudgetScope scope(1.0);
  auto xhat = PlanRegistry::Global().Find("WorkloadLS")->Execute(
      x, scope, {.dims = {n}, .rng = &rng, .workload = w});
  ASSERT_TRUE(xhat.ok());
  EXPECT_NEAR(kernel.BudgetConsumed(), 1.0, 1e-12);
  EXPECT_LT(Rmse(*xhat, hist), 4.0);
}

TEST(StripedKronTest, FlattenedAblationMatchesStructuredResult) {
  // Same seed: the flattened ("basic sparse") variant must produce the
  // same estimate as the structured Kronecker — only the representation
  // differs.
  Rng rng(13);
  const std::vector<std::size_t> dims = {16, 3, 2};
  Vec hist = MakeHistogram1D(Shape1D::kStep, 96, 10000.0, &rng);
  Vec results[2];
  for (int variant = 0; variant < 2; ++variant) {
    ProtectedKernel kernel(TableFromHistogram(hist, "v"), 0.5, 4242);
    ProtectedVector x(&kernel, *kernel.TVectorize(kernel.root()));
    BudgetScope scope(0.5);
    auto xhat = MakeHbStripedKronPlan(/*materialize_full=*/variant)
                    ->Execute(x, scope, {.dims = dims, .rng = &rng});
    ASSERT_TRUE(xhat.ok());
    results[variant] = *xhat;
  }
  for (std::size_t i = 0; i < results[0].size(); ++i)
    EXPECT_NEAR(results[0][i], results[1][i], 1e-5);
}

TEST(MwemAugmentTest, AugmentedRoundsStayDisjoint) {
  // The variant-b measurement sets must keep sensitivity 1 (disjoint
  // ranges) at every round — checked through the kernel transcript.
  Rng rng(14);
  const std::size_t n = 256;
  Vec hist = MakeHistogram1D(Shape1D::kBimodal, n, 8000.0, &rng);
  ProtectedKernel kernel(TableFromHistogram(hist, "v"), 0.5, 15);
  ProtectedVector x(&kernel, *kernel.TVectorize(kernel.root()));
  auto ranges = RandomRanges(50, n, 64, &rng);
  BudgetScope scope(0.5);
  auto xhat = MakeMwemPlan({.rounds = 6, .augment_h2 = true})
                  ->Execute(x, scope,
                            {.dims = {n},
                             .rng = &rng,
                             .ranges = ranges,
                             .known_total = Sum(hist)});
  ASSERT_TRUE(xhat.ok());
  for (const auto& e : kernel.transcript()) {
    if (e.op.rfind("VectorLaplace", 0) == 0) {
      // noise scale = sens/eps must equal 1/eps => sens == 1.
      EXPECT_NEAR(e.noise_scale * e.eps, 1.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace ektelo
