// Deeper adversarial tests of the budget tracker (Algorithm 2): the cases
// a privacy auditor would probe — interleaved queries above and below
// partition boundaries, refusals mid-plan, stability through split
// children, and reduce/split chains.
#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "data/table.h"
#include "gtest/gtest.h"
#include "kernel/kernel.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/partition.h"
#include "matrix/rewrite.h"
#include "ops/hdmm.h"
#include "ops/selection.h"
#include "plans/plan.h"

namespace ektelo {
namespace {

Table UniformTable(std::size_t domain, std::size_t per_cell) {
  Table t(Schema({{"v", domain}}));
  for (std::size_t i = 0; i < domain; ++i)
    for (std::size_t c = 0; c < per_cell; ++c)
      t.AppendRow({static_cast<uint32_t>(i)});
  return t;
}

TEST(KernelPrivacyTest, QueryOnParentAfterSplitIsSequential) {
  // Measuring the split source itself composes sequentially with the
  // children's parallel max: parent eps + max(children eps).
  ProtectedKernel k(UniformTable(8, 1), 1.0, 1);
  auto x = k.TVectorize(k.root());
  auto ch = k.VSplitByPartition(*x, Partition::FromIntervals({0, 4}, 8));
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(k.VectorLaplace((*ch)[0], *MakeIdentityOp(4), 0.2).ok());
  ASSERT_TRUE(k.VectorLaplace(*x, *MakeIdentityOp(8), 0.3).ok());
  // 0.2 (max over children) + 0.3 (direct on parent).
  EXPECT_NEAR(k.BudgetConsumed(), 0.5, 1e-12);
}

TEST(KernelPrivacyTest, InterleavedChildQueriesKeepMaxSemantics) {
  // Alternate between children; only the running max is charged.
  ProtectedKernel k(UniformTable(8, 1), 1.0, 2);
  auto x = k.TVectorize(k.root());
  auto ch = k.VSplitByPartition(*x, Partition::FromIntervals({0, 4}, 8));
  ASSERT_TRUE(ch.ok());
  const double steps[][2] = {{0, 0.1}, {1, 0.3}, {0, 0.1}, {1, 0.1},
                             {0, 0.3}};
  const double expected[] = {0.1, 0.3, 0.3, 0.4, 0.5};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(k.VectorLaplace((*ch)[std::size_t(steps[i][0])],
                                *MakeIdentityOp(4), steps[i][1])
                    .ok());
    EXPECT_NEAR(k.BudgetConsumed(), expected[i], 1e-12) << "step " << i;
  }
}

TEST(KernelPrivacyTest, RefusalLeavesPartitionStateConsistent) {
  ProtectedKernel k(UniformTable(8, 1), 0.5, 3);
  auto x = k.TVectorize(k.root());
  auto ch = k.VSplitByPartition(*x, Partition::FromIntervals({0, 4}, 8));
  ASSERT_TRUE(k.VectorLaplace((*ch)[0], *MakeIdentityOp(4), 0.4).ok());
  // Child 1 asking 0.2 only costs max-increase... 0.4 -> still 0.4, OK.
  ASSERT_TRUE(k.VectorLaplace((*ch)[1], *MakeIdentityOp(4), 0.2).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.4, 1e-12);
  // Child 1 asking 0.4 more would push its total to 0.6 > 0.5: refused.
  auto denied = k.VectorLaplace((*ch)[1], *MakeIdentityOp(4), 0.4);
  ASSERT_FALSE(denied.ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.4, 1e-12);
  // But 0.1 more still fits (child 1 reaches 0.3; max stays 0.4... then
  // child 1 at 0.3 < 0.4, so no extra root charge at all).
  ASSERT_TRUE(k.VectorLaplace((*ch)[1], *MakeIdentityOp(4), 0.1).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.4, 1e-12);
}

TEST(KernelPrivacyTest, StabilityAppliesBelowSplit) {
  // A 2-stable transform on a split child doubles that child's charges.
  ProtectedKernel k(UniformTable(8, 1), 1.0, 4);
  auto x = k.TVectorize(k.root());
  auto ch = k.VSplitByPartition(*x, Partition::FromIntervals({0, 4}, 8));
  DenseMatrix m(1, 4);
  m.At(0, 0) = 2.0;  // max column norm 2
  auto t = k.VTransform((*ch)[0], MakeDense(m));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(k.VectorLaplace(*t, *MakeIdentityOp(1), 0.1).ok());
  // Child 0 is charged 0.2; partition max(0.2, 0) = 0.2 at the root.
  EXPECT_NEAR(k.BudgetConsumed(), 0.2, 1e-12);
  // Sibling can still use 0.2 "for free" under the max.
  ASSERT_TRUE(k.VectorLaplace((*ch)[1], *MakeIdentityOp(4), 0.2).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.2, 1e-12);
}

TEST(KernelPrivacyTest, ReduceThenSplitChains) {
  ProtectedKernel k(UniformTable(16, 1), 1.0, 5);
  auto x = k.TVectorize(k.root());
  auto r = k.VReduceByPartition(*x, Partition::FromIntervals({0, 8}, 16));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(k.VectorSize(*r), 2u);
  auto ch = k.VSplitByPartition(*r, Partition::FromIntervals({0, 1}, 2));
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(k.VectorLaplace((*ch)[0], *MakeIdentityOp(1), 0.3).ok());
  ASSERT_TRUE(k.VectorLaplace((*ch)[1], *MakeIdentityOp(1), 0.3).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.3, 1e-12);
}

TEST(KernelPrivacyTest, SensitivityZeroQueryStillCharges) {
  // An all-zero measurement matrix reveals nothing, but the request is
  // still metered (conservative; refusing to special-case avoids a
  // covert channel through the budget counter).
  ProtectedKernel k(UniformTable(4, 1), 1.0, 6);
  auto x = k.TVectorize(k.root());
  DenseMatrix zero(2, 4);
  auto y = k.VectorLaplace(*x, DenseOp(zero), 0.25);
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ((*y)[0], 0.0);
}

TEST(KernelPrivacyTest, HighSensitivityQueryChargesOnlyEps) {
  // Sensitivity scales the noise, not the budget: Prefix (sens n) at eps
  // costs eps and returns appropriately noisier answers.
  ProtectedKernel k(UniformTable(32, 2), 1.0, 7);
  auto x = k.TVectorize(k.root());
  ASSERT_TRUE(k.VectorLaplace(*x, *MakePrefixOp(32), 0.5).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.5, 1e-12);
  EXPECT_NEAR(k.transcript()[0].noise_scale, 32.0 / 0.5, 1e-12);
}

TEST(KernelPrivacyTest, ExpMechChargesAndReturnsValidIndex) {
  ProtectedKernel k(UniformTable(8, 3), 1.0, 8);
  auto x = k.TVectorize(k.root());
  std::vector<std::function<double(const Vec&)>> scorers;
  for (int i = 0; i < 5; ++i)
    scorers.push_back([i](const Vec& v) { return v[i]; });
  auto pick = k.ChooseByVectorScores(*x, scorers, 0.3, 1.0);
  ASSERT_TRUE(pick.ok());
  EXPECT_LT(*pick, 5u);
  EXPECT_NEAR(k.BudgetConsumed(), 0.3, 1e-12);
}

TEST(KernelPrivacyTest, WorstApproxRefusedWhenBroke) {
  ProtectedKernel k(UniformTable(8, 1), 0.1, 9);
  auto x = k.TVectorize(k.root());
  ASSERT_TRUE(k.VectorLaplace(*x, *MakeIdentityOp(8), 0.1).ok());
  Vec xhat(8, 0.0);
  auto denied = k.WorstApprox(*x, *MakeIdentityOp(8), xhat, 0.05);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kBudgetExhausted);
}

TEST(KernelPrivacyTest, BudgetRemainingClampedAtExactlySpentBudget) {
  // 3 x 0.1 FP-accumulates to slightly more than 0.3 (admitted under the
  // tracker's relative slack), which used to make BudgetRemaining() return
  // a tiny negative value.  At exactly-spent budget the remainder must
  // read 0 and a real follow-up request must be refused.
  ProtectedKernel k(UniformTable(4, 1), 0.3, 14);
  auto x = k.TVectorize(k.root());
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(k.VectorLaplace(*x, *MakeTotalOp(4), 0.1).ok()) << i;
  EXPECT_GE(k.BudgetRemaining(), 0.0);
  EXPECT_LT(k.BudgetRemaining(), 1e-12);
  auto denied = k.VectorLaplace(*x, *MakeTotalOp(4), 0.05);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kBudgetExhausted);
  // The refusal did not disturb the clamp.
  EXPECT_GE(k.BudgetRemaining(), 0.0);
}

TEST(KernelPrivacyTest, ManySmallRequestsEqualOneBig) {
  // 100 x eps/100 charges exactly eps (no drift that could be exploited).
  ProtectedKernel k(UniformTable(4, 1), 1.0, 10);
  auto x = k.TVectorize(k.root());
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(k.VectorLaplace(*x, *MakeTotalOp(4), 0.01).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 1.0, 1e-9);
  EXPECT_FALSE(k.VectorLaplace(*x, *MakeTotalOp(4), 0.001).ok());
}

TEST(KernelPrivacyTest, SplitChildrenOfEmptyGroupsAreUsable) {
  // Groups with zero cells never arise from Partition (num_groups counts
  // them), but single-cell groups at the extremes must work.
  ProtectedKernel k(UniformTable(3, 2), 1.0, 11);
  auto x = k.TVectorize(k.root());
  auto ch = k.VSplitByPartition(*x, Partition({0, 1, 2}, 3));
  ASSERT_TRUE(ch.ok());
  ASSERT_EQ(ch->size(), 3u);
  for (SourceId c : *ch) EXPECT_EQ(k.VectorSize(c), 1u);
}

TEST(KernelPrivacyTest, TransformAfterMeasurementStillTracked) {
  // Measuring, transforming, then measuring the transform: both charges
  // land on the root correctly.
  ProtectedKernel k(UniformTable(8, 1), 1.0, 12);
  auto x = k.TVectorize(k.root());
  ASSERT_TRUE(k.VectorLaplace(*x, *MakeTotalOp(8), 0.2).ok());
  auto r = k.VReduceByPartition(*x, Partition::FromIntervals({0, 4}, 8));
  ASSERT_TRUE(k.VectorLaplace(*r, *MakeIdentityOp(2), 0.3).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.5, 1e-12);
}

// The Laplace charge is only as good as the sensitivity it is calibrated
// to.  Oracle: for every catalog strategy, built through its public
// selection function at a small size and converted to each physical
// representation with rewriting on and off, SensitivityL1() must equal the
// max column L1 norm of the densely materialized matrix.
TEST(KernelPrivacyTest, StrategySensitivityMatchesMaterializedOracle) {
  auto oracle = [](const LinOp& op) {
    const DenseMatrix d = op.MaterializeDense();
    double best = 0.0;
    for (std::size_t j = 0; j < d.cols(); ++j) {
      double col = 0.0;
      for (std::size_t i = 0; i < d.rows(); ++i) col += std::abs(d.At(i, j));
      best = std::max(best, col);
    }
    return best;
  };
  const std::vector<RangeQuery> ranges = {
      {0, 5}, {3, 12}, {8, 8}, {10, 15}, {0, 15}, {6, 9}};
  // Fresh instances per conversion, so no per-instance cache carries a
  // value from one case into the next.
  const std::vector<std::pair<std::string, std::function<LinOpPtr()>>>
      strategies = {
          {"Identity", [] { return IdentitySelect(16); }},
          {"H2", [] { return H2Select(16); }},
          {"HB", [] { return HbSelect(27); }},
          {"Privelet", [] { return PriveletSelect(16); }},
          {"Greedy-H", [&] { return GreedyHSelect(ranges, 16); }},
          {"QuadTree", [] { return QuadtreeSelect(8, 8); }},
          {"UniformGrid", [] { return GridCellsSelect(8, 8, 3, 3); }},
          {"AdaptiveGrid", [] { return GridCellsSelect(10, 7, 4, 3); }},
          {"HB-Striped_kron", [] { return StripeKronSelect({9, 4}, 0); }},
          {"HB-Striped_kron factors",
           [] {
             return MakeKronecker(
                 {MakeIdentityOp(3), HbSelect(9), MakeIdentityOp(2)});
           }},
          {"HDMM",
           [] {
             return HdmmSelect({MakePrefixOp(8), MakeIdentityOp(4)}, {8, 4});
           }},
      };
  for (bool rewrite : {true, false}) {
    SetRewriteEnabled(rewrite);
    for (MatrixMode mode :
         {MatrixMode::kImplicit, MatrixMode::kSparse, MatrixMode::kDense}) {
      for (const auto& [name, make] : strategies) {
        SCOPED_TRACE(name + "/" + MatrixModeName(mode) +
                     (rewrite ? "/rewrite" : "/no-rewrite"));
        const LinOpPtr op = ApplyMode(make(), mode);
        const double want = oracle(*op);
        EXPECT_GT(want, 0.0);
        EXPECT_NEAR(op->SensitivityL1(), want, 1e-12 * (1.0 + want));
      }
    }
  }
  SetRewriteEnabled(true);
}

}  // namespace
}  // namespace ektelo
