// Property tests for the implicit-matrix engine: every LinOp's primitive
// methods must agree exactly with its materialized form (implicit
// representations are lossless, paper Sec. 7.2).
#include <memory>

#include "gtest/gtest.h"
#include "linalg/haar.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/linop.h"
#include "matrix/range_ops.h"
#include "util/rng.h"

namespace ektelo {
namespace {

Vec RandomVec(std::size_t n, Rng* rng) {
  Vec v(n);
  for (auto& x : v) x = rng->Normal();
  return v;
}

CsrMatrix RandomSparse(std::size_t m, std::size_t n, Rng* rng,
                       double density = 0.3) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng->Uniform() < density) t.push_back({i, j, rng->Normal()});
  return CsrMatrix::FromTriplets(m, n, std::move(t));
}

/// The core invariant: all primitive methods of `op` agree with the
/// explicitly materialized matrix.
void CheckAgainstMaterialized(const LinOp& op, Rng* rng, double tol = 1e-9) {
  SCOPED_TRACE(op.DebugName());
  DenseMatrix d = op.MaterializeDense();
  ASSERT_EQ(d.rows(), op.rows());
  ASSERT_EQ(d.cols(), op.cols());

  // Apply / ApplyT.
  Vec x = RandomVec(op.cols(), rng);
  Vec y1 = op.Apply(x);
  Vec y2 = d.Matvec(x);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], tol);
  Vec u = RandomVec(op.rows(), rng);
  Vec z1 = op.ApplyT(u);
  Vec z2 = d.RmatVec(u);
  for (std::size_t j = 0; j < z1.size(); ++j) EXPECT_NEAR(z1[j], z2[j], tol);

  // Abs.
  DenseMatrix da = op.Abs()->MaterializeDense();
  EXPECT_TRUE(da.ApproxEquals(d.Abs(), tol));

  // Sensitivity.
  EXPECT_NEAR(op.SensitivityL1(), d.MaxColNormL1(), tol);

  // Sparse materialization agrees with dense.
  EXPECT_TRUE(op.MaterializeSparse().ToDense().ApproxEquals(d, tol));
}

TEST(LinOpTest, DenseOpMatchesItself) {
  Rng rng(1);
  DenseMatrix d(3, 4);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) d.At(i, j) = rng.Normal();
  auto op = MakeDense(d);
  CheckAgainstMaterialized(*op, &rng);
}

TEST(LinOpTest, SparseOp) {
  Rng rng(2);
  auto op = MakeSparse(RandomSparse(6, 9, &rng));
  CheckAgainstMaterialized(*op, &rng);
}

TEST(LinOpTest, Identity) {
  Rng rng(3);
  CheckAgainstMaterialized(*MakeIdentityOp(7), &rng);
}

TEST(LinOpTest, OnesAndTotal) {
  Rng rng(4);
  CheckAgainstMaterialized(*MakeOnesOp(3, 5), &rng);
  CheckAgainstMaterialized(*MakeTotalOp(6), &rng);
}

TEST(LinOpTest, PrefixAndSuffix) {
  Rng rng(5);
  CheckAgainstMaterialized(*MakePrefixOp(9), &rng);
  CheckAgainstMaterialized(*MakeSuffixOp(9), &rng);
}

TEST(LinOpTest, Wavelet) {
  Rng rng(6);
  CheckAgainstMaterialized(*MakeWaveletOp(16), &rng);
}

TEST(LinOpTest, PrefixOfTotalIsCdfQueries) {
  // Prefix * x gives the empirical CDF numerators of Algorithm 1.
  auto p = MakePrefixOp(4);
  Vec x = {1.0, 2.0, 3.0, 4.0};
  Vec y = p->Apply(x);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[3], 10.0);
}

TEST(LinOpTest, TransposeView) {
  Rng rng(7);
  auto op = MakeTranspose(MakePrefixOp(8));
  CheckAgainstMaterialized(*op, &rng);
  auto twice = MakeTranspose(op);
  CheckAgainstMaterialized(*twice, &rng);
}

TEST(LinOpTest, VStack) {
  Rng rng(8);
  auto op = MakeVStack({MakeIdentityOp(6), MakeTotalOp(6), MakePrefixOp(6)});
  EXPECT_EQ(op->rows(), 13u);
  CheckAgainstMaterialized(*op, &rng);
}

TEST(LinOpTest, VStackMixedSigns) {
  Rng rng(9);
  auto op = MakeVStack(
      {MakeSparse(RandomSparse(4, 5, &rng)), MakeIdentityOp(5)});
  CheckAgainstMaterialized(*op, &rng);
}

TEST(LinOpTest, Product) {
  Rng rng(10);
  auto a = MakeSparse(RandomSparse(4, 6, &rng));
  auto b = MakeSparse(RandomSparse(6, 5, &rng));
  auto op = MakeProduct(a, b);
  CheckAgainstMaterialized(*op, &rng);
}

TEST(LinOpTest, RangeQueriesAsSparseTimesPrefix) {
  // Example 7.4: range query [i, j] = prefix(j) - prefix(i-1).
  // Rows: [1,3], [3,4], [0,3], [1,1] on a domain of 5.
  std::vector<Triplet> t = {{0, 3, 1.0}, {0, 0, -1.0}, {1, 4, 1.0},
                            {1, 2, -1.0}, {2, 3, 1.0},  {3, 1, 1.0},
                            {3, 0, -1.0}};
  auto s = MakeSparse(CsrMatrix::FromTriplets(4, 5, std::move(t)));
  auto ranges = MakeProduct(s, MakePrefixOp(5), /*binary_hint=*/true);
  DenseMatrix d = ranges->MaterializeDense();
  // Row 0 should be the indicator of [1,3].
  EXPECT_DOUBLE_EQ(d.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(d.At(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(d.At(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(d.At(0, 4), 0.0);
  // Binary hint makes Abs a no-op view of the same operator.
  Rng rng(11);
  CheckAgainstMaterialized(*ranges, &rng);
}

TEST(LinOpTest, KroneckerAgainstDense) {
  Rng rng(12);
  auto a = MakeSparse(RandomSparse(3, 4, &rng));
  auto b = MakeSparse(RandomSparse(2, 5, &rng));
  CheckAgainstMaterialized(*MakeKronecker(a, b), &rng);
}

TEST(LinOpTest, KroneckerOfImplicits) {
  Rng rng(13);
  auto op = MakeKronecker(MakePrefixOp(4), MakeIdentityOp(3));
  CheckAgainstMaterialized(*op, &rng);
  auto op3 = MakeKronecker(
      {MakeTotalOp(3), MakeIdentityOp(2), MakePrefixOp(2)});
  CheckAgainstMaterialized(*op3, &rng);
}

TEST(LinOpTest, KroneckerMixedProductProperty) {
  // (A ⊗ B)(x ⊗ y) = (A x) ⊗ (B y).
  Rng rng(14);
  auto a = MakePrefixOp(4);
  auto b = MakeSparse(RandomSparse(3, 5, &rng));
  auto k = MakeKronecker(a, b);
  Vec x = RandomVec(4, &rng);
  Vec y = RandomVec(5, &rng);
  Vec xy(4 * 5);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 5; ++j) xy[i * 5 + j] = x[i] * y[j];
  Vec lhs = k->Apply(xy);
  Vec ax = a->Apply(x);
  Vec by = b->Apply(y);
  for (std::size_t i = 0; i < ax.size(); ++i)
    for (std::size_t j = 0; j < by.size(); ++j)
      EXPECT_NEAR(lhs[i * by.size() + j], ax[i] * by[j], 1e-9);
}

TEST(LinOpTest, RowWeight) {
  Rng rng(15);
  auto child = MakeSparse(RandomSparse(5, 7, &rng));
  Vec w = RandomVec(5, &rng);
  CheckAgainstMaterialized(*MakeRowWeight(child, w), &rng);
}

TEST(LinOpTest, ScaledOperator) {
  Rng rng(16);
  auto op = MakeScaled(MakeIdentityOp(4), 2.5);
  DenseMatrix d = op->MaterializeDense();
  EXPECT_DOUBLE_EQ(d.At(2, 2), 2.5);
  CheckAgainstMaterialized(*op, &rng);
}

TEST(LinOpTest, RowIndexing) {
  // Table 1: w_i = W^T e_i.
  auto p = MakePrefixOp(5);
  Vec row2 = RowOf(*p, 2);
  for (std::size_t j = 0; j < 5; ++j)
    EXPECT_DOUBLE_EQ(row2[j], j <= 2 ? 1.0 : 0.0);
}

TEST(LinOpTest, GramSparseMatchesDense) {
  Rng rng(17);
  auto op = MakeVStack({MakeIdentityOp(6), MakePrefixOp(6)});
  DenseMatrix g1 = GramSparse(*op).ToDense();
  DenseMatrix d = op->MaterializeDense();
  DenseMatrix g2 = d.Gram();
  EXPECT_TRUE(g1.ApproxEquals(g2, 1e-9));
}

TEST(LinOpTest, MarginalsAsKroneckers) {
  // Example 7.5: W13 = I ⊗ Total ⊗ I sums out the middle attribute.
  auto w13 = MakeKronecker(
      {MakeIdentityOp(2), MakeTotalOp(3), MakeIdentityOp(2)});
  EXPECT_EQ(w13->rows(), 4u);
  EXPECT_EQ(w13->cols(), 12u);
  Vec x(12);
  for (std::size_t i = 0; i < 12; ++i) x[i] = static_cast<double>(i);
  Vec y = w13->Apply(x);
  // Cell (a=0, c=0) = x[(0,b,0)] summed over b = x0 + x2·? layout: index =
  // a*6 + b*2 + c; so (0,*,0) -> {0, 2, 4}.
  EXPECT_DOUBLE_EQ(y[0], 0.0 + 2.0 + 4.0);
  EXPECT_DOUBLE_EQ(y[3], 7.0 + 9.0 + 11.0);
}

TEST(LinOpTest, SensitivityOfUnionIsColumnSum) {
  // Union stacks queries, so sensitivities add per column:
  // Identity (1) + Total (1) => 2.
  auto op = MakeVStack({MakeIdentityOp(5), MakeTotalOp(5)});
  EXPECT_DOUBLE_EQ(op->SensitivityL1(), 2.0);
}

TEST(LinOpTest, KroneckerSensitivityFactorizes) {
  auto h = MakeVStack({MakeIdentityOp(4), MakeTotalOp(4)});  // L1 = 2
  auto k = MakeKronecker(h, h);
  EXPECT_DOUBLE_EQ(k->SensitivityL1(), 4.0);
}

// Parameterized sweep: materialization equivalence across shapes.
class LinOpSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LinOpSweepTest, CoreOpsLossless) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  CheckAgainstMaterialized(*MakeIdentityOp(n), &rng);
  CheckAgainstMaterialized(*MakePrefixOp(n), &rng);
  CheckAgainstMaterialized(*MakeSuffixOp(n), &rng);
  CheckAgainstMaterialized(*MakeTotalOp(n), &rng);
  if (IsPowerOfTwo(n)) CheckAgainstMaterialized(*MakeWaveletOp(n), &rng);
  CheckAgainstMaterialized(
      *MakeVStack({MakeIdentityOp(n), MakePrefixOp(n)}), &rng);
}

INSTANTIATE_TEST_SUITE_P(Shapes, LinOpSweepTest,
                         ::testing::Values(1, 2, 3, 8, 13, 16, 31, 64));

TEST(RangeOpsTest, RangeSetMatchesMaterialized) {
  Rng rng(30);
  auto op = MakeRangeSetOp({{0, 4}, {2, 2}, {3, 7}, {0, 7}}, 8);
  CheckAgainstMaterialized(*op, &rng);
}

TEST(RangeOpsTest, RangeSetSensitivityIsMaxCoverage) {
  auto op = MakeRangeSetOp({{0, 3}, {2, 5}, {2, 2}}, 8);
  EXPECT_DOUBLE_EQ(op->SensitivityL1(), 3.0);  // cell 2 covered thrice
}

TEST(RangeOpsTest, RectangleSetMatchesMaterialized) {
  Rng rng(31);
  auto op = MakeRectangleSetOp(
      {{0, 2, 1, 3}, {1, 1, 0, 0}, {0, 3, 0, 4}}, 4, 5);
  CheckAgainstMaterialized(*op, &rng);
}

TEST(RangeOpsTest, RectangleSensitivity) {
  auto op = MakeRectangleSetOp({{0, 1, 0, 1}, {1, 2, 1, 2}}, 3, 3);
  EXPECT_DOUBLE_EQ(op->SensitivityL1(), 2.0);  // cell (1,1) in both
}

TEST(RangeOpsTest, SparseNnzIsCoveredCells) {
  auto op = MakeRangeSetOp({{0, 3}, {5, 5}}, 8);
  EXPECT_EQ(op->MaterializeSparse().nnz(), 5u);
}

// PrefixOp identity: suffix is the transpose of prefix.
TEST(LinOpTest, SuffixIsPrefixTranspose) {
  auto p = MakePrefixOp(6);
  auto s = MakeSuffixOp(6);
  EXPECT_TRUE(s->MaterializeDense().ApproxEquals(
      p->MaterializeDense().Transpose(), 1e-12));
}

}  // namespace
}  // namespace ektelo
