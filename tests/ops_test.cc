// Tests for the operator library: hierarchies + tree inference, query
// selection, partition selection, HDMM strategy scoring, measurement sets
// and the generic inference operators.
#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "gtest/gtest.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/lsmr.h"
#include "ops/hdmm.h"
#include "ops/hierarchy.h"
#include "ops/inference.h"
#include "ops/measurement.h"
#include "ops/partition_select.h"
#include "ops/selection.h"
#include "util/rng.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

Vec RandomCounts(std::size_t n, Rng* rng, double scale = 20.0) {
  Vec v(n);
  for (auto& x : v) x = std::floor(rng->Uniform(0.0, scale));
  return v;
}

// ------------------------------------------------------------- hierarchy

TEST(HierarchyTest, BinaryTreeStructure) {
  Hierarchy h = BuildHierarchy(8, 2);
  ASSERT_EQ(h.levels.size(), 4u);  // 1 + 2 + 4 + 8
  EXPECT_EQ(h.levels[0][0].lo, 0u);
  EXPECT_EQ(h.levels[0][0].hi, 8u);
  EXPECT_EQ(h.levels[3].size(), 8u);
  EXPECT_EQ(h.TotalNodes(), 15u);
}

TEST(HierarchyTest, NonPowerSizesCoverDomain) {
  for (std::size_t n : {3u, 5u, 7u, 13u, 100u}) {
    Hierarchy h = BuildHierarchy(n, 2);
    // Leaves (nodes with no children) must tile [0, n).
    Vec covered(n, 0.0);
    for (std::size_t l = 0; l < h.levels.size(); ++l) {
      for (std::size_t i = 0; i < h.levels[l].size(); ++i) {
        const bool has_children =
            l + 1 < h.levels.size() &&
            h.child_start[l][i + 1] > h.child_start[l][i];
        if (!has_children)
          for (std::size_t c = h.levels[l][i].lo; c < h.levels[l][i].hi;
               ++c)
            covered[c] += 1.0;
      }
    }
    for (double v : covered) EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(HierarchyTest, OpRowsAreIntervalSums) {
  Hierarchy h = BuildHierarchy(4, 2);
  auto op = HierarchyOp(h);
  Vec x = {1, 2, 3, 4};
  Vec y = op->Apply(x);
  EXPECT_DOUBLE_EQ(y[0], 10.0);  // root
  EXPECT_DOUBLE_EQ(y[1], 3.0);   // [0,2)
  EXPECT_DOUBLE_EQ(y[2], 7.0);   // [2,4)
  EXPECT_DOUBLE_EQ(y[3], 1.0);   // leaves
}

TEST(HierarchyTest, SensitivityIsTreeHeight) {
  // Each cell is covered once per level.
  auto op = HierarchyOp(BuildHierarchy(16, 2));
  EXPECT_DOUBLE_EQ(op->SensitivityL1(), 5.0);  // levels: 16,8,4,2,1
}

TEST(HierarchyTest, HbBranchingReasonable) {
  // HB picks larger branching for larger domains; always >= 2.
  EXPECT_GE(HbBranchingFactor(16), 2u);
  EXPECT_GE(HbBranchingFactor(1 << 20), 2u);
}

TEST(TreeLsTest, MatchesGenericLeastSquaresOnCompleteTree) {
  // The specialized two-pass solver must equal LSMR on the same system.
  Rng rng(1);
  for (std::size_t n : {4u, 8u, 16u}) {
    Hierarchy h = BuildHierarchy(n, 2);
    auto op = HierarchyOp(h);
    Vec x_true = RandomCounts(n, &rng);
    Vec y = op->Apply(x_true);
    for (auto& v : y) v += rng.Laplace(1.0);  // uniform noise
    Vec x_tree = TreeBasedLeastSquares(h, y);
    Vec x_lsmr = Lsmr(*op, y).x;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x_tree[i], x_lsmr[i], 1e-6) << "n=" << n << " i=" << i;
  }
}

TEST(TreeLsTest, ExactOnNoiselessMeasurements) {
  Hierarchy h = BuildHierarchy(8, 2);
  auto op = HierarchyOp(h);
  Vec x_true = {5, 0, 3, 2, 8, 1, 1, 4};
  Vec x = TreeBasedLeastSquares(h, op->Apply(x_true));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

// --------------------------------------------------------- laminar forest

/// A random laminar family over n cells: nested intervals with gaps
/// (uncovered cells), some supports repeated, some rows zero, in shuffled
/// row order and under a random cell permutation (so most supports are
/// unions of several runs).
IndicatorRows RandomLaminarRows(std::size_t n, Rng* rng) {
  std::vector<std::pair<std::size_t, std::size_t>> supports;
  std::function<void(std::size_t, std::size_t)> split =
      [&](std::size_t lo, std::size_t hi) {
        supports.push_back({lo, hi});
        if (rng->Uniform() < 0.3) supports.push_back({lo, hi});
        if (hi - lo < 2) return;
        for (std::size_t pos = lo; pos < hi;) {
          const std::size_t len = std::min<std::size_t>(
              hi - pos, 1 + rng->UniformInt(0, (hi - lo) / 2 - 1));
          if (rng->Uniform() < 0.8) split(pos, pos + len);
          pos += len;
        }
      };
  split(0, n);
  std::vector<std::size_t> perm(n);
  for (std::size_t c = 0; c < n; ++c) perm[c] = c;
  for (std::size_t c = n; c-- > 1;)
    std::swap(perm[c], perm[rng->UniformInt(0, int64_t(c))]);
  for (std::size_t r = supports.size(); r-- > 1;)
    std::swap(supports[r], supports[rng->UniformInt(0, int64_t(r))]);
  IndicatorRows rows;
  for (const auto& [lo, hi] : supports) {
    std::vector<std::size_t> cells;
    for (std::size_t c = lo; c < hi; ++c) cells.push_back(perm[c]);
    std::sort(cells.begin(), cells.end());
    for (std::size_t c : cells) rows.AddRun(c, c + 1);
    rows.EndRow(rng->Uniform() < 0.1 ? 0.0 : rng->Uniform(0.5, 3.0));
  }
  return rows;
}

std::shared_ptr<const LaminarTopology> SharedTopology(IndicatorRows rows,
                                                      std::size_t n) {
  std::optional<LaminarTopology> t =
      LaminarTopology::Build(std::move(rows), n);
  EK_CHECK(t.has_value());
  return std::make_shared<const LaminarTopology>(*std::move(t));
}

TEST(LaminarForestTest, TopologyPlusWeightsSolvesLikeBuild) {
  // Weighing one topology under a scale must give, bit for bit, the
  // forest Build makes from the rows with their coefficients scaled.
  Rng rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t n = std::size_t(rng.UniformInt(1, 200));
    const IndicatorRows rows = RandomLaminarRows(n, &rng);
    const auto topology = SharedTopology(rows, n);
    Vec b(rows.rows());
    for (double& v : b) v = rng.Laplace(10.0);
    for (double scale : {1.0, 0.37, 3.0, 1e-3, 1e5}) {
      IndicatorRows scaled = rows;
      for (double& c : scaled.coef) c *= scale;
      std::optional<LaminarForest> built =
          LaminarForest::Build(std::move(scaled), n);
      std::optional<LaminarForest> weighed =
          LaminarForest::Weigh(topology, scale);
      ASSERT_TRUE(built.has_value());
      ASSERT_TRUE(weighed.has_value());
      EXPECT_EQ(built->nodes(), weighed->nodes());
      EXPECT_TRUE(BitwiseEq(built->Solve(b), weighed->Solve(b)))
          << "scale " << scale;
    }
  }
}

TEST(LaminarForestTest, SeparableSolveOnCachedTopologyMatchesBuild) {
  // One measurement of Scale(Kron(F, I_k)) solves on the topology cached
  // on F: the first solve and a repeat must both equal F's forest built
  // from its scaled rows and solved copy by copy.
  const std::size_t nf = 16, k = 3;
  const Hierarchy h = BuildHierarchy(nf, 2);
  const LinOpPtr f = HierarchyOp(h);
  const LinOpPtr m = MakeScaled(MakeKronecker(f, MakeIdentityOp(k)), 2.0);
  Rng rng(4);
  for (double noise : {0.5, 3.0}) {
    SCOPED_TRACE(noise);
    Vec y(m->rows());
    for (double& v : y) v = rng.Laplace(5.0);
    MeasurementSet mset;
    mset.Add(m, y, noise);
    const double w = mset.WeightFor(noise);
    IndicatorRows rows;
    for (const auto& level : h.levels)
      for (const HierNode& node : level) {
        rows.AddRun(node.lo, node.hi);
        rows.EndRow(1.0 * (w * 2.0));
      }
    std::optional<LaminarForest> forest =
        LaminarForest::Build(std::move(rows), nf);
    ASSERT_TRUE(forest.has_value());
    Vec expected(nf * k), b(f->rows());
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = w * y[i * k + j];
      const Vec xj = forest->Solve(b);
      for (std::size_t l = 0; l < nf; ++l) expected[l * k + j] = xj[l];
    }
    EXPECT_TRUE(BitwiseEq(LeastSquaresInference(mset), expected));
    EXPECT_TRUE(BitwiseEq(LeastSquaresInference(mset), expected));
  }
}

TEST(LaminarForestTest, ZeroPatternMismatchFallsBackToBuild) {
  // Row 1's coefficient underflows to zero under the measurement weight,
  // so Build drops it.  Weigh must refuse the cached topology, and the
  // solver must build from the scaled rows instead.
  const std::size_t n = 8;
  const std::vector<std::pair<std::size_t, std::size_t>> supports = {
      {0, 8}, {0, 4}, {4, 8}, {0, 2}};
  const Vec coef = {1.0, 1e-320, 1.0, 2.0};
  IndicatorRows rows;
  std::vector<Triplet> entries;
  for (std::size_t r = 0; r < supports.size(); ++r) {
    rows.AddRun(supports[r].first, supports[r].second);
    rows.EndRow(coef[r]);
    for (std::size_t c = supports[r].first; c < supports[r].second; ++c)
      entries.push_back({r, c, coef[r]});
  }
  MeasurementSet mset;
  mset.Add(MakeSparse(CsrMatrix::FromTriplets(supports.size(), n, entries)),
           {40.0, 21.0, 19.0, 9.0}, /*noise_scale=*/1e10);
  const double w = mset.WeightFor(1e10);
  const auto topology = SharedTopology(rows, n);
  EXPECT_FALSE(LaminarForest::Weigh(topology, w).has_value());
  EXPECT_FALSE(LaminarForest::Weigh(
                   topology, std::numeric_limits<double>::infinity())
                   .has_value());
  EXPECT_TRUE(LaminarForest::Weigh(topology, 1.0).has_value());

  IndicatorRows scaled = rows;
  for (double& c : scaled.coef) c *= w;
  std::optional<LaminarForest> built =
      LaminarForest::Build(std::move(scaled), n);
  ASSERT_TRUE(built.has_value());
  EXPECT_EQ(built->nodes(), 3u);
  const Vec& y = mset.items()[0].y;
  Vec b(y.size());
  for (std::size_t r = 0; r < y.size(); ++r) b[r] = w * y[r];
  EXPECT_TRUE(BitwiseEq(LeastSquaresInference(mset), built->Solve(b)));
}

// ------------------------------------------------------------- selection

TEST(SelectionTest, CanonicalCoverIsExact) {
  Hierarchy h = BuildHierarchy(16, 2);
  Rng rng(2);
  Vec x = RandomCounts(16, &rng);
  for (auto q : std::vector<RangeQuery>{{0, 15}, {3, 11}, {5, 5}, {0, 7}}) {
    double sum = 0.0;
    for (auto [l, i] : CanonicalCover(h, q))
      for (std::size_t c = h.levels[l][i].lo; c < h.levels[l][i].hi; ++c)
        sum += x[c];
    double want = 0.0;
    for (std::size_t c = q.lo; c <= q.hi; ++c) want += x[c];
    EXPECT_NEAR(sum, want, 1e-9);
  }
}

TEST(SelectionTest, CanonicalCoverIsSmall) {
  // Canonical binary decomposition uses O(log n) nodes per range.
  Hierarchy h = BuildHierarchy(1024, 2);
  auto cover = CanonicalCover(h, {1, 1022});
  EXPECT_LE(cover.size(), 2 * 10u);
}

TEST(SelectionTest, GreedyHKeepsH2Sensitivity) {
  Rng rng(3);
  auto ranges = RandomRanges(50, 64, 16, &rng);
  auto g = GreedyHSelect(ranges, 64);
  auto h2 = H2Select(64);
  EXPECT_NEAR(g->SensitivityL1(), h2->SensitivityL1(), 1e-9);
}

TEST(SelectionTest, GreedyHUpweightsUsedLevels) {
  // A workload of only-total queries should upweight the root row
  // relative to a leaf row.
  std::vector<RangeQuery> w(40, RangeQuery{0, 63});
  auto g = GreedyHSelect(w, 64);
  Vec root_row = RowOf(*g, 0);
  DenseMatrix d = g->MaterializeDense();
  double root_w = d.At(0, 0);
  double leaf_w = d.At(d.rows() - 1, 63);
  EXPECT_GT(root_w, leaf_w);
}

TEST(SelectionTest, QuadtreeCoversAndNests) {
  auto q = QuadtreeSelect(4, 4);
  Vec x(16, 1.0);
  Vec y = q->Apply(x);
  EXPECT_DOUBLE_EQ(y[0], 16.0);  // root rectangle
  EXPECT_DOUBLE_EQ(q->SensitivityL1(), 3.0);  // 3 levels for 4x4
}

TEST(SelectionTest, GridCellsPartitionDomain) {
  auto g = GridCellsSelect(6, 6, 3, 3);
  EXPECT_EQ(g->rows(), 9u);
  EXPECT_DOUBLE_EQ(g->SensitivityL1(), 1.0);  // disjoint cells
  Vec x(36, 1.0);
  Vec y = g->Apply(x);
  for (double v : y) EXPECT_DOUBLE_EQ(v, 4.0);
}

TEST(SelectionTest, UniformGridSideScalesWithData) {
  EXPECT_EQ(UniformGridSide(0.0, 1.0, 64), 1u);
  std::size_t small = UniformGridSide(1e3, 0.1, 1024);
  std::size_t large = UniformGridSide(1e6, 0.1, 1024);
  EXPECT_LT(small, large);
  EXPECT_LE(large, 1024u);
}

TEST(SelectionTest, StripeKronShape) {
  auto m = StripeKronSelect({8, 3, 2}, 0);
  // HB(8) nodes x identity(3) x identity(2).
  EXPECT_EQ(m->cols(), 48u);
  EXPECT_EQ(m->rows() % 6, 0u);
  // Sensitivity = HB height (identity factors contribute 1).
  EXPECT_DOUBLE_EQ(m->SensitivityL1(), HbSelect(8)->SensitivityL1());
}

// ----------------------------------------------------- partition select

TEST(PartitionSelectTest, GridPartition2DBlocks) {
  Partition p = GridPartition2D(4, 4, 2, 2);
  EXPECT_EQ(p.num_groups(), 4u);
  EXPECT_EQ(p.group_of(0), p.group_of(1));      // (0,0) and (0,1)
  EXPECT_EQ(p.group_of(0), p.group_of(4 + 1));  // (1,1)
  EXPECT_NE(p.group_of(0), p.group_of(2));      // (0,2) in next block
}

TEST(PartitionSelectTest, StripePartitionGroupsByRest) {
  // dims {4, 3}, stripe along dim 0: groups = 3 (one per dim-1 value),
  // each group's cells ordered by the stripe coordinate.
  Partition p = StripePartition({4, 3}, 0);
  EXPECT_EQ(p.num_groups(), 3u);
  auto groups = p.Groups();
  for (std::size_t g = 0; g < 3; ++g) {
    ASSERT_EQ(groups[g].size(), 4u);
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_EQ(groups[g][k], k * 3 + g);  // cell = i*3 + j
  }
}

TEST(PartitionSelectTest, StripePartitionLastDim) {
  Partition p = StripePartition({4, 3}, 1);
  EXPECT_EQ(p.num_groups(), 4u);
  auto groups = p.Groups();
  for (std::size_t g = 0; g < 4; ++g)
    for (std::size_t k = 0; k < 3; ++k)
      EXPECT_EQ(groups[g][k], g * 3 + k);
}

TEST(PartitionSelectTest, MarginalPartitionMatchesMarginalWorkload) {
  // Reducing by MarginalPartition must equal applying MarginalWorkload.
  Rng rng(4);
  std::vector<std::size_t> dims = {3, 4, 2};
  Schema s({{"a", 3}, {"b", 4}, {"c", 2}});
  Vec x = RandomCounts(24, &rng);
  Partition p = MarginalPartition(dims, {0, 2});
  Vec reduced = p.ReduceOp()->Apply(x);
  Vec marginal = MarginalWorkload(s, {"a", "c"})->Apply(x);
  ASSERT_EQ(reduced.size(), marginal.size());
  for (std::size_t i = 0; i < reduced.size(); ++i)
    EXPECT_NEAR(reduced[i], marginal[i], 1e-9);
}

TEST(PartitionSelectTest, DawaDpFindsUniformRegions) {
  // Step function with two perfectly uniform halves: the DP should merge
  // whole halves rather than fragmenting them.
  Vec x(64, 1.0);
  for (std::size_t i = 32; i < 64; ++i) x[i] = 9.0;
  Partition p = DawaIntervalPartition(x, 1.0);
  EXPECT_LE(p.num_groups(), 4u);
  EXPECT_NE(p.group_of(0), p.group_of(63));
}

TEST(PartitionSelectTest, DawaDpKeepsSpikesSeparate) {
  Vec x(32, 0.0);
  x[10] = 100.0;
  Partition p = DawaIntervalPartition(x, 0.5);
  // The spike cell should not share a group with everything.
  EXPECT_GT(p.num_groups(), 1u);
}

TEST(PartitionSelectTest, DawaPenaltyControlsGranularity) {
  Rng rng(5);
  Vec x = RandomCounts(128, &rng, 50.0);
  Partition fine = DawaIntervalPartition(x, 0.01);
  Partition coarse = DawaIntervalPartition(x, 1000.0);
  EXPECT_GE(fine.num_groups(), coarse.num_groups());
}

TEST(PartitionSelectTest, AhpClusterThresholdsAndGroups) {
  Vec noisy = {0.2, 100.0, 0.1, 101.0, 55.0, -0.4};
  Partition p = AhpClusterPartition(noisy, 1.0, 5.0);
  // The two ~100 cells cluster together; the ~0 cells cluster together.
  EXPECT_EQ(p.group_of(1), p.group_of(3));
  EXPECT_EQ(p.group_of(0), p.group_of(2));
  EXPECT_EQ(p.group_of(0), p.group_of(5));
  EXPECT_NE(p.group_of(0), p.group_of(4));
}

// ------------------------------------------------------------- HDMM

TEST(HdmmTest, TseMatchesKnownIdentityCase) {
  // W = A = Identity(n): TSE = 1^2 * trace(I) = n.
  auto id = MakeIdentityOp(6);
  EXPECT_NEAR(MatrixMechanismTse(*id, *id), 6.0, 1e-6);
}

TEST(HdmmTest, PrefersIdentityForIdentityWorkload) {
  HdmmChoice c = HdmmSelect1D(*MakeIdentityOp(64), 64);
  EXPECT_EQ(c.name, "Identity");
}

TEST(HdmmTest, PrefersHierarchicalForPrefixWorkload) {
  HdmmChoice c = HdmmSelect1D(*MakePrefixOp(64), 64);
  EXPECT_NE(c.name, "Identity");
  // And it should genuinely beat Identity on the scored TSE.
  const double tse_id =
      MatrixMechanismTse(*MakePrefixOp(64), *MakeIdentityOp(64));
  EXPECT_LT(c.scored_tse, tse_id);
}

TEST(HdmmTest, KroneckerComposition) {
  auto strat = HdmmSelect({MakeIdentityOp(8), MakePrefixOp(8)}, {8, 8});
  EXPECT_EQ(strat->cols(), 64u);
}

// ---------------------------------------------------- measurement + inf

TEST(MeasurementSetTest, StackingAndWeighting) {
  MeasurementSet mset;
  mset.Add(MakeIdentityOp(4), Vec{1, 2, 3, 4}, 2.0);
  mset.Add(MakeTotalOp(4), Vec{10}, 0.5);
  EXPECT_EQ(mset.TotalQueries(), 5u);
  Vec wy = mset.WeightedY();
  EXPECT_DOUBLE_EQ(wy[0], 0.5);   // 1 / scale 2
  EXPECT_DOUBLE_EQ(wy[4], 20.0);  // 10 / scale 0.5
  // Weighted op rows scale the same way.
  DenseMatrix d = mset.WeightedOp()->MaterializeDense();
  EXPECT_DOUBLE_EQ(d.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(d.At(4, 0), 2.0);
}

TEST(InferenceTest, LsRecoversExactData) {
  Rng rng(6);
  Vec x_true = RandomCounts(32, &rng);
  auto m = MakeVStack({MakeTotalOp(32), MakeIdentityOp(32)});
  MeasurementSet mset;
  mset.Add(m, m->Apply(x_true), 1.0);
  Vec xhat = LeastSquaresInference(mset);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_NEAR(xhat[i], x_true[i], 1e-6);
}

TEST(InferenceTest, WeightingImprovesOverUnweighted) {
  // Two identity measurements with very different noise: weighted LS
  // should land closer to the low-noise one.
  const std::size_t n = 128;
  Rng rng(7);
  Vec x_true = RandomCounts(n, &rng);
  Vec y_precise = x_true, y_noisy = x_true;
  for (auto& v : y_precise) v += rng.Laplace(0.1);
  for (auto& v : y_noisy) v += rng.Laplace(10.0);
  MeasurementSet mset;
  mset.Add(MakeIdentityOp(n), y_precise, 0.1);
  mset.Add(MakeIdentityOp(n), y_noisy, 10.0);
  Vec xhat = LeastSquaresInference(mset);
  EXPECT_LT(Rmse(xhat, x_true), 0.5);  // close to the precise answers
}

TEST(InferenceTest, Theorem53MoreMeasurementsNeverHurt) {
  // Expected-error comparison via the matrix mechanism: adding a (unit
  // variance) measurement row can only decrease q's expected error.
  auto m1 = MakeIdentityOp(8);
  auto m2 = MakeVStack({MakeIdentityOp(8), MakeTotalOp(8)});
  // Error of q under LS = q (M^T M)^-1 q^T (all variances 1).
  auto err = [](const LinOp& m, const Vec& q) {
    DenseMatrix gram = m.MaterializeDense().Gram();
    DenseMatrix inv = PseudoInverse(gram, 1e-12);
    Vec t = inv.Matvec(q);
    return Dot(q, t);
  };
  Vec q(8, 1.0);  // the total query
  EXPECT_LE(err(*m2, q), err(*m1, q) + 1e-9);
  Vec q2(8, 0.0);
  q2[3] = 1.0;  // a point query
  EXPECT_LE(err(*m2, q2), err(*m1, q2) + 1e-9);
}

TEST(InferenceTest, NnlsInferenceNonNegativeAndUsesTotal) {
  Rng rng(8);
  const std::size_t n = 16;
  Vec x_true = RandomCounts(n, &rng, 3.0);
  const double total = Sum(x_true);
  Vec y = x_true;
  for (auto& v : y) v += rng.Laplace(3.0);
  MeasurementSet mset;
  mset.Add(MakeIdentityOp(n), y, 3.0);
  Vec xhat = NnlsInference(mset, total);
  double s = 0.0;
  for (double v : xhat) {
    EXPECT_GE(v, -1e-9);
    s += v;
  }
  EXPECT_NEAR(s, total, 0.05 * total + 1.0);
}

TEST(InferenceTest, MwPreservesTotalAndImproves) {
  Rng rng(9);
  const std::size_t n = 64;
  Vec x_true(n, 0.0);
  for (std::size_t i = 0; i < n / 4; ++i) x_true[i] = 40.0;  // skewed
  const double total = Sum(x_true);
  auto m = RangeQueryOp({{0, 15}, {16, 63}, {0, 31}}, n);
  Vec y = m->Apply(x_true);
  for (auto& v : y) v += rng.Laplace(2.0);
  MeasurementSet mset;
  mset.Add(m, y, 2.0);
  Vec xhat = MultWeightsInference(mset, total, {.iterations = 80});
  EXPECT_NEAR(Sum(xhat), total, 1e-6 * total);
  // Better than the uniform start on the measured queries.
  Vec uniform(n, total / n);
  double err_mw = Rmse(m->Apply(xhat), m->Apply(x_true));
  double err_uni = Rmse(m->Apply(uniform), m->Apply(x_true));
  EXPECT_LT(err_mw, err_uni);
}

TEST(InferenceTest, DirectMatchesIterativeSmall) {
  Rng rng(10);
  const std::size_t n = 24;
  Vec x_true = RandomCounts(n, &rng);
  auto m = MakeVStack({MakeIdentityOp(n), MakeTotalOp(n), MakePrefixOp(n)});
  Vec y = m->Apply(x_true);
  for (auto& v : y) v += rng.Laplace(1.0);
  MeasurementSet mset;
  mset.Add(m, y, 1.0);
  Vec direct = DirectLeastSquaresInference(mset);
  Vec iter = LeastSquaresInference(mset);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(direct[i], iter[i], 1e-4);
}

TEST(ThresholdingTest, ZeroesSmallEntriesOnly) {
  Vec x = {0.5, -0.4, 10.0, -7.0, 0.0};
  Vec t = ThresholdingInference(x, 1.0);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[1], 0.0);
  EXPECT_DOUBLE_EQ(t[2], 10.0);
  EXPECT_DOUBLE_EQ(t[3], -7.0);
}

TEST(ThresholdingTest, ZeroThresholdIsIdentity) {
  Vec x = {0.1, -0.1};
  Vec t = ThresholdingInference(x, 0.0);
  EXPECT_DOUBLE_EQ(t[0], 0.1);
  EXPECT_DOUBLE_EQ(t[1], -0.1);
}

TEST(ThresholdingTest, ImprovesSparseEstimates) {
  // On sparse data, zeroing the noise floor reduces error (AHP's trick).
  Rng rng(4);
  const std::size_t n = 512;
  Vec x_true(n, 0.0);
  x_true[7] = 500.0;
  x_true[300] = 800.0;
  Vec noisy = x_true;
  const double scale = 10.0;
  for (auto& v : noisy) v += rng.Laplace(scale);
  Vec cleaned = ThresholdingInference(noisy, 2.0 * scale);
  EXPECT_LT(Rmse(cleaned, x_true), Rmse(noisy, x_true));
}

}  // namespace
}  // namespace ektelo
