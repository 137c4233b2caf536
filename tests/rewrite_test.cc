// Unit tests for the algebraic rewrite pass: each rule is checked both
// structurally (the canonical form it must produce) and numerically
// (the rewritten operator represents the same matrix), plus the node
// kinds the pass leaves alone, the toggle and per-instance sensitivity.
#include <cmath>
#include <memory>

#include "gtest/gtest.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/linop.h"
#include "matrix/range_ops.h"
#include "matrix/rewrite.h"
#include "util/rng.h"

namespace ektelo {
namespace {

template <typename T>
std::shared_ptr<const T> As(const LinOpPtr& p) {
  return std::dynamic_pointer_cast<const T>(p);
}

Vec RandomVec(std::size_t n, Rng* rng) {
  Vec v(n);
  for (auto& x : v) x = rng->Normal();
  return v;
}

CsrMatrix RandomSparse(std::size_t m, std::size_t n, Rng* rng,
                       double density = 0.4) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng->Uniform() < density) t.push_back({i, j, rng->Normal()});
  return CsrMatrix::FromTriplets(m, n, std::move(t));
}

/// Rewritten and original must represent the same matrix: Apply and
/// ApplyT agree on random probes.
void CheckSameMatrix(const LinOpPtr& orig, const LinOpPtr& rewritten,
                     Rng* rng, double tol = 1e-10) {
  SCOPED_TRACE("orig=" + orig->DebugName() +
               " rewritten=" + rewritten->DebugName());
  ASSERT_EQ(rewritten->rows(), orig->rows());
  ASSERT_EQ(rewritten->cols(), orig->cols());
  for (int rep = 0; rep < 3; ++rep) {
    Vec x = RandomVec(orig->cols(), rng);
    Vec y0 = orig->Apply(x);
    Vec y1 = rewritten->Apply(x);
    for (std::size_t i = 0; i < y0.size(); ++i)
      ASSERT_NEAR(y0[i], y1[i], tol * std::max(1.0, std::abs(y0[i]))) << i;
    Vec u = RandomVec(orig->rows(), rng);
    Vec z0 = orig->ApplyT(u);
    Vec z1 = rewritten->ApplyT(u);
    for (std::size_t i = 0; i < z0.size(); ++i)
      ASSERT_NEAR(z0[i], z1[i], tol * std::max(1.0, std::abs(z0[i]))) << i;
  }
}

TEST(RewriteRuleTest, ScaleFoldsIntoLeaves) {
  Rng rng(2);
  auto sp = MakeSparse(RandomSparse(6, 8, &rng));
  auto r = Rewrite(MakeScaled(sp, 2.5));
  EXPECT_TRUE(As<SparseOp>(r));
  CheckSameMatrix(MakeScaled(sp, 2.5), r, &rng);

  DenseMatrix d(4, 5);
  for (auto& v : d.data()) v = rng.Normal();
  auto de = MakeDense(d);
  auto rd = Rewrite(MakeScaled(de, -1.5));
  EXPECT_TRUE(As<DenseOp>(rd));
  CheckSameMatrix(MakeScaled(de, -1.5), rd, &rng);
}

TEST(RewriteRuleTest, IdentityFactorsVanish) {
  // Kron(I_m, I_n) = I_mn.
  Rng rng(4);
  auto kron = MakeKronecker(MakeIdentityOp(3), MakeIdentityOp(4));
  auto kii = Rewrite(kron);
  auto id = As<IdentityOp>(kii);
  ASSERT_TRUE(id);
  EXPECT_EQ(id->rows(), 12u);
  CheckSameMatrix(kron, kii, &rng);
}

TEST(RewriteRuleTest, VStackMergesRangeSets) {
  Rng rng(7);
  const std::size_t n = 32;
  auto r1 = MakeRangeSetOp({{0, 5}, {3, 9}}, n);
  auto r2 = MakeRangeSetOp({{10, 31}}, n);
  auto stack = MakeVStack({r1, r2});
  auto r = Rewrite(stack);
  auto merged = As<RangeSetOp>(r);
  ASSERT_TRUE(merged);
  EXPECT_EQ(merged->ranges().size(), 3u);
  CheckSameMatrix(stack, r, &rng);

  // A Total row (Ones(1, n)) merges as the full interval.
  auto with_total = MakeVStack({r1, MakeTotalOp(n)});
  auto rt = Rewrite(with_total);
  auto mt = As<RangeSetOp>(rt);
  ASSERT_TRUE(mt);
  EXPECT_EQ(mt->ranges().size(), 3u);
  EXPECT_EQ(mt->ranges().back().lo, 0u);
  EXPECT_EQ(mt->ranges().back().hi, n - 1);
  CheckSameMatrix(with_total, rt, &rng);
}

TEST(RewriteRuleTest, VStackMergesCsrLeavesSinglePass) {
  Rng rng(9);
  auto s1 = MakeSparse(RandomSparse(4, 6, &rng));
  auto s2 = MakeSparse(RandomSparse(3, 6, &rng));
  auto s3 = MakeSparse(RandomSparse(5, 6, &rng));
  auto stack = MakeVStack({s1, s2, s3});
  auto r = Rewrite(stack);
  auto sp = As<SparseOp>(r);
  ASSERT_TRUE(sp);
  EXPECT_EQ(sp->csr().rows(), 12u);
  CheckSameMatrix(stack, r, &rng);
}

TEST(RewriteRuleTest, NoOpRewriteReturnsOriginalPointer) {
  // Operators already canonical come back as the same instance, so
  // per-instance caches survive.
  auto rs = MakeRangeSetOp({{0, 3}, {2, 7}}, 16);
  EXPECT_EQ(Rewrite(rs), rs);
  auto k = MakeKronecker(MakePrefixOp(4), MakeWaveletOp(4));
  EXPECT_EQ(Rewrite(k), k);
  auto single = MakeScaled(MakeRangeSetOp({{0, 7}}, 16), 2.0);
  EXPECT_EQ(Rewrite(single), single);

  // The pass descends through Scale, VStack and Kronecker only: every
  // other node kind comes back as the same instance, even over a child
  // the pass would rewrite on its own.
  Rng rng(12);
  auto mergeable =
      MakeVStack({MakeRangeSetOp({{0, 3}}, 16), MakeRangeSetOp({{4, 15}}, 16)});
  auto sp1 = MakeSparse(RandomSparse(16, 16, &rng));
  auto sp2 = MakeSparse(RandomSparse(16, 16, &rng));
  auto product = MakeProduct(MakeIdentityOp(2), mergeable);
  EXPECT_EQ(Rewrite(product), product);
  auto transpose = MakeTranspose(MakeTranspose(mergeable));
  EXPECT_EQ(Rewrite(transpose), transpose);
  auto row_weight = MakeRowWeight(sp1, RandomVec(16, &rng));
  EXPECT_EQ(Rewrite(row_weight), row_weight);
  auto sum = MakeSum({sp1, sp2});
  EXPECT_EQ(Rewrite(sum), sum);
  auto hstack = MakeHStack({sp1, sp2});
  EXPECT_EQ(Rewrite(hstack), hstack);
  LinOpPtr gram = std::make_shared<GramOp>(mergeable);
  EXPECT_EQ(Rewrite(gram), gram);
}

TEST(RewriteToggleTest, MaybeRewriteFollowsToggle) {
  auto op =
      MakeVStack({MakeRangeSetOp({{0, 3}}, 8), MakeRangeSetOp({{2, 7}}, 8)});
  SetRewriteEnabled(false);
  EXPECT_EQ(MaybeRewrite(op), op);
  SetRewriteEnabled(true);
  EXPECT_NE(MaybeRewrite(op), op);
}

TEST(SensitivityTest, EqualConstructionsEachComputeTheirOwn) {
  // Sensitivity is a method of the operator being charged: two equal
  // fresh instances each compute (and cache) an equal value, whatever the
  // rewrite toggle.
  for (bool rewrite : {true, false}) {
    SetRewriteEnabled(rewrite);
    auto a = MakeScaled(MakeRangeSetOp({{0, 9}, {5, 19}, {0, 19}}, 20), 2.0);
    auto b = MakeScaled(MakeRangeSetOp({{0, 9}, {5, 19}, {0, 19}}, 20), 2.0);
    EXPECT_EQ(a->SensitivityL1(), 6.0);
    EXPECT_EQ(b->SensitivityL1(), a->SensitivityL1());
  }
  SetRewriteEnabled(true);
}

}  // namespace
}  // namespace ektelo
