// Unit tests for the algebraic rewrite engine: each rule is checked both
// structurally (the canonical form it must produce) and numerically
// (the rewritten operator represents the same matrix), plus the toggle
// and per-instance sensitivity.
#include <cmath>
#include <memory>

#include "gtest/gtest.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/linop.h"
#include "matrix/partition.h"
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

TEST(RewriteRuleTest, ScaleOfScaleCollapses) {
  Rng rng(1);
  auto base = MakePrefixOp(16);
  auto op = MakeScaled(MakeScaled(base, 2.0), 3.0);
  auto r = Rewrite(op);
  auto s = As<ScaleOp>(r);
  ASSERT_TRUE(s);
  EXPECT_DOUBLE_EQ(s->scale(), 6.0);
  EXPECT_FALSE(As<ScaleOp>(s->child()));
  CheckSameMatrix(op, r, &rng);
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

TEST(RewriteRuleTest, TransposePushesToLeaves) {
  Rng rng(3);
  // T(T(A)) = A, by pointer.
  auto a = MakePrefixOp(8);
  EXPECT_EQ(Rewrite(MakeTranspose(MakeTranspose(a))), a);

  // T(A B) = T(B) T(A).
  auto sp1 = MakeSparse(RandomSparse(5, 7, &rng));
  auto wav = MakeWaveletOp(8);
  auto prod = MakeProduct(sp1, MakeSparse(RandomSparse(7, 8, &rng)));
  auto tp = MakeTranspose(prod);
  auto rtp = Rewrite(tp);
  EXPECT_FALSE(As<TransposeOp>(rtp));  // fused into one sparse leaf
  CheckSameMatrix(tp, rtp, &rng);

  // T(A (x) B) = T(A) (x) T(B).
  auto kron = MakeKronecker(wav, MakePrefixOp(4));
  auto tk = MakeTranspose(kron);
  auto rtk = Rewrite(tk);
  auto k = As<KroneckerOp>(rtk);
  ASSERT_TRUE(k);
  CheckSameMatrix(tk, rtk, &rng);

  // T([A; B]) = [T(A) | T(B)].
  auto stack = MakeVStack({MakePrefixOp(6), MakeSuffixOp(6)});
  auto ts = MakeTranspose(stack);
  auto rts = Rewrite(ts);
  EXPECT_TRUE(As<HStackOp>(rts));
  CheckSameMatrix(ts, rts, &rng);

  // Gram is symmetric: T(Gram(A)) = Gram(A).
  auto g = a->Gram();
  EXPECT_EQ(Rewrite(MakeTranspose(g)), g);

  // T of a CSR leaf materializes the transposed leaf.
  auto sp = MakeSparse(RandomSparse(6, 9, &rng));
  auto rsp = Rewrite(MakeTranspose(sp));
  EXPECT_TRUE(As<SparseOp>(rsp));
  CheckSameMatrix(MakeTranspose(sp), rsp, &rng);
}

TEST(RewriteRuleTest, IdentityFactorsVanish) {
  Rng rng(4);
  auto a = MakePrefixOp(8);
  EXPECT_EQ(Rewrite(MakeProduct(MakeIdentityOp(8), a)), a);
  EXPECT_EQ(Rewrite(MakeProduct(a, MakeIdentityOp(8))), a);

  // Kron(I_1, A) = A, Kron(I_m, I_n) = I_mn.
  EXPECT_EQ(Rewrite(MakeKronecker(MakeIdentityOp(1), a)), a);
  auto kii = Rewrite(MakeKronecker(MakeIdentityOp(3), MakeIdentityOp(4)));
  auto id = As<IdentityOp>(kii);
  ASSERT_TRUE(id);
  EXPECT_EQ(id->rows(), 12u);
}

TEST(RewriteRuleTest, KroneckerMixedProductFuses) {
  Rng rng(5);
  auto a = MakeDense([&] {
    DenseMatrix m(3, 4);
    for (auto& v : m.data()) v = rng.Normal();
    return m;
  }());
  auto b = MakeDense([&] {
    DenseMatrix m(2, 5);
    for (auto& v : m.data()) v = rng.Normal();
    return m;
  }());
  auto c = MakeDense([&] {
    DenseMatrix m(4, 2);
    for (auto& v : m.data()) v = rng.Normal();
    return m;
  }());
  auto d = MakeDense([&] {
    DenseMatrix m(5, 3);
    for (auto& v : m.data()) v = rng.Normal();
    return m;
  }());
  auto op = MakeProduct(MakeKronecker(a, b), MakeKronecker(c, d));
  auto r = Rewrite(op);
  ASSERT_TRUE(As<KroneckerOp>(r));  // (AC) (x) (BD)
  EXPECT_FALSE(As<ProductOp>(r));
  CheckSameMatrix(op, r, &rng, 1e-9);
}

TEST(RewriteRuleTest, PartitionGramShortCircuitsToDiagonal) {
  // P P^T of a partition is diagonal with the group sizes: the sparse
  // product fuses (nnz p <= 2 nnz P) and Gram(T(P)) collapses.
  Partition p({0, 0, 1, 2, 2, 2, 1, 0}, 3);
  auto reduce = p.ReduceOp();  // 3 x 8 CSR
  auto ppt = MakeProduct(reduce, MakeTranspose(reduce));
  auto r = Rewrite(ppt);
  auto sp = As<SparseOp>(r);
  ASSERT_TRUE(sp);
  EXPECT_EQ(sp->csr().nnz(), 3u);  // diagonal
  auto sizes = p.GroupSizes();
  for (std::size_t g = 0; g < 3; ++g)
    EXPECT_DOUBLE_EQ(sp->csr().values()[g], double(sizes[g]));

  // The same collapse through Gram(): Gram(P^T) = P P^T.
  auto gram = Rewrite(MakeTranspose(reduce))->Gram();
  auto rg = Rewrite(gram);
  auto spg = As<SparseOp>(rg);
  ASSERT_TRUE(spg);
  EXPECT_EQ(spg->csr().nnz(), 3u);
}

TEST(RewriteRuleTest, RowWeightFusesIntoCsrLeaf) {
  Rng rng(6);
  auto sp = MakeSparse(RandomSparse(5, 7, &rng));
  Vec w = RandomVec(5, &rng);
  auto op = MakeRowWeight(sp, w);
  auto r = Rewrite(op);
  EXPECT_TRUE(As<SparseOp>(r));
  CheckSameMatrix(op, r, &rng);

  // RowWeight of RowWeight composes; all-ones weights vanish.
  auto base = MakePrefixOp(5);
  Vec w2 = RandomVec(5, &rng);
  auto nested = MakeRowWeight(MakeRowWeight(base, w), w2);
  auto rn = Rewrite(nested);
  auto rw = As<RowWeightOp>(rn);
  ASSERT_TRUE(rw);
  EXPECT_FALSE(As<RowWeightOp>(rw->child()));
  CheckSameMatrix(nested, rn, &rng);
  EXPECT_EQ(Rewrite(MakeRowWeight(base, Vec(5, 1.0))), base);
}

TEST(RewriteRuleTest, VStackFlattensAndMergesRangeSets) {
  Rng rng(7);
  const std::size_t n = 32;
  auto r1 = MakeRangeSetOp({{0, 5}, {3, 9}}, n);
  auto r2 = MakeRangeSetOp({{10, 31}}, n);
  auto r3 = MakeRangeSetOp({{2, 2}}, n);
  auto nested = MakeVStack({MakeVStack({r1, r2}), r3});
  auto r = Rewrite(nested);
  auto merged = As<RangeSetOp>(r);
  ASSERT_TRUE(merged);
  EXPECT_EQ(merged->ranges().size(), 4u);
  CheckSameMatrix(nested, r, &rng);

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

TEST(RewriteRuleTest, VStackHoistsWeightsThenMerges) {
  Rng rng(8);
  const std::size_t n = 24;
  auto r1 = MakeRangeSetOp({{0, 5}, {6, 11}}, n);
  auto r2 = MakeRangeSetOp({{12, 23}}, n);
  // Equal scales hoist to one Scale over the merged RangeSet.
  auto equal = MakeVStack({MakeScaled(r1, 2.0), MakeScaled(r2, 2.0)});
  auto req = Rewrite(equal);
  CheckSameMatrix(equal, req, &rng);
  {
    bool merged_below = false;
    if (auto s = As<ScaleOp>(req)) merged_below = !!As<RangeSetOp>(s->child());
    if (auto rw = As<RowWeightOp>(req))
      merged_below = !!As<RangeSetOp>(rw->child());
    EXPECT_TRUE(merged_below) << req->DebugName();
  }
  // Unequal scales hoist to a RowWeight over the merged RangeSet.
  auto unequal = MakeVStack({MakeScaled(r1, 2.0), MakeScaled(r2, 5.0)});
  auto run = Rewrite(unequal);
  auto rw = As<RowWeightOp>(run);
  ASSERT_TRUE(rw);
  EXPECT_TRUE(As<RangeSetOp>(rw->child()));
  CheckSameMatrix(unequal, run, &rng);
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

TEST(RewriteRuleTest, SumFlattensAndMergesLeaves) {
  Rng rng(10);
  auto s1 = MakeSparse(RandomSparse(5, 5, &rng));
  auto s2 = MakeSparse(RandomSparse(5, 5, &rng));
  auto lazy = MakePrefixOp(5)->Gram();
  auto nested = MakeSum({MakeSum({s1, lazy}), s2});
  auto r = Rewrite(nested);
  CheckSameMatrix(nested, r, &rng);
  auto sum = As<SumOp>(r);
  ASSERT_TRUE(sum);
  // The two CSR leaves folded into one; the lazy Gram survives.
  EXPECT_EQ(sum->children().size(), 2u);
}

TEST(RewriteRuleTest, GramReDerivesAfterChildRewrite) {
  Rng rng(11);
  const std::size_t n = 16;
  auto stack =
      MakeVStack({MakeRangeSetOp({{0, 3}}, n), MakeRangeSetOp({{4, 15}}, n)});
  // The lazy Gram of the unmerged stack re-derives over the merged child.
  LinOpPtr lazy = std::make_shared<GramOp>(stack);
  auto r = Rewrite(lazy);
  auto g = As<GramOp>(r);
  ASSERT_TRUE(g);
  EXPECT_TRUE(As<RangeSetOp>(g->child()));
  CheckSameMatrix(lazy, r, &rng);
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
}

TEST(RewriteToggleTest, MaybeRewriteFollowsToggle) {
  auto op = MakeScaled(MakeScaled(MakePrefixOp(8), 2.0), 3.0);
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
