// Randomized operator-tree fuzzing for the implicit-matrix engine.
//
// Builds random compositions of every LinOp kind (core implicit matrices,
// range/rectangle sets, dense/sparse leaves, Union, Product, Kronecker,
// RowWeight, Transpose) and checks that all five primitive methods plus
// sensitivity and materialization agree exactly with the materialized
// matrix — the "implicit representations are lossless" invariant of
// Sec. 7.2, exercised over hundreds of structures no hand-written test
// would cover.
#include <algorithm>
#include <cmath>
#include <functional>

#include "gtest/gtest.h"
#include "linalg/haar.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"
#include "util/rng.h"

namespace ektelo {
namespace {

Vec RandomVec(std::size_t n, Rng* rng) {
  Vec v(n);
  for (auto& x : v) x = rng->Normal();
  return v;
}

CsrMatrix RandomSparse(std::size_t m, std::size_t n, Rng* rng) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng->Uniform() < 0.4) t.push_back({i, j, rng->Normal()});
  // Guarantee at least one entry so the op is not all-zero.
  t.push_back({0, 0, 1.0});
  return CsrMatrix::FromTriplets(m, n, std::move(t));
}

/// A random leaf operator with `n` columns.
LinOpPtr RandomLeaf(std::size_t n, Rng* rng) {
  switch (rng->UniformInt(0, 6)) {
    case 0:
      return MakeIdentityOp(n);
    case 1:
      return MakeTotalOp(n);
    case 2:
      return MakePrefixOp(n);
    case 3:
      return MakeSuffixOp(n);
    case 4: {
      std::vector<Interval> ranges;
      const std::size_t m = 1 + std::size_t(rng->UniformInt(0, 4));
      for (std::size_t q = 0; q < m; ++q) {
        std::size_t lo = std::size_t(rng->UniformInt(0, int64_t(n) - 1));
        std::size_t hi = std::size_t(rng->UniformInt(lo, int64_t(n) - 1));
        ranges.push_back({lo, hi});
      }
      return MakeRangeSetOp(std::move(ranges), n);
    }
    case 5:
      return MakeSparse(
          RandomSparse(1 + std::size_t(rng->UniformInt(0, 5)), n, rng));
    default:
      if (IsPowerOfTwo(n)) return MakeWaveletOp(n);
      return MakeOnesOp(2, n);
  }
}

/// A random operator tree of bounded depth over `n` columns.
LinOpPtr RandomTree(std::size_t n, std::size_t depth, Rng* rng) {
  if (depth == 0 || n <= 2) return RandomLeaf(n, rng);
  switch (rng->UniformInt(0, 7)) {
    case 0: {  // Union of 2-3 subtrees with equal column counts
      std::vector<LinOpPtr> kids;
      const int k = int(rng->UniformInt(2, 3));
      for (int i = 0; i < k; ++i)
        kids.push_back(RandomTree(n, depth - 1, rng));
      return MakeVStack(std::move(kids));
    }
    case 1: {  // Product: A (m x k) * B (k x n)
      LinOpPtr b = RandomTree(n, depth - 1, rng);
      LinOpPtr a = RandomLeaf(b->rows(), rng);
      return MakeProduct(std::move(a), std::move(b));
    }
    case 2: {  // Kronecker of two small factors if n factors nicely
      for (std::size_t fa : {2u, 3u, 4u}) {
        if (n % fa == 0 && n / fa >= 1) {
          LinOpPtr a = RandomTree(fa, depth - 1, rng);
          LinOpPtr b = RandomTree(n / fa, depth - 1, rng);
          return MakeKronecker(std::move(a), std::move(b));
        }
      }
      return RandomLeaf(n, rng);
    }
    case 3: {  // Row weights
      LinOpPtr child = RandomTree(n, depth - 1, rng);
      Vec w(child->rows());
      for (auto& x : w) x = rng->Normal();
      return MakeRowWeight(std::move(child), std::move(w));
    }
    case 4: {  // Horizontal stack: split the columns across 2 children
      if (n < 4) return RandomLeaf(n, rng);
      const std::size_t n1 = 1 + std::size_t(rng->UniformInt(1, int64_t(n) - 2));
      LinOpPtr a = RandomTree(n1, depth - 1, rng);
      LinOpPtr b = RandomTree(n - n1, depth - 1, rng);
      // Children must share a row count; equalize by stacking under a
      // fixed-row Ones on top (cheapest is to just retry with leaves).
      if (a->rows() != b->rows()) {
        a = MakeOnesOp(3, n1);
        b = MakeOnesOp(3, n - n1);
      }
      return MakeHStack({std::move(a), std::move(b)});
    }
    case 5: {  // Sum of 2 same-shape subtrees
      LinOpPtr a = RandomTree(n, depth - 1, rng);
      LinOpPtr b = RandomLeaf(n, rng);
      if (a->rows() != b->rows()) b = MakeIdentityOp(n);
      if (a->rows() != b->rows()) return a;
      return MakeSum({std::move(a), std::move(b)});
    }
    case 6: {  // Uniform scaling
      LinOpPtr child = RandomTree(n, depth - 1, rng);
      return MakeScaled(std::move(child), rng->Normal() * 2.0);
    }
    default:  // Transpose of a square-ish subtree: transpose twice to
              // keep the column count (transpose itself is exercised).
      return MakeTranspose(MakeTranspose(RandomTree(n, depth - 1, rng)));
  }
}

void CheckLossless(const LinOp& op, Rng* rng, double tol = 1e-8) {
  SCOPED_TRACE(op.DebugName());
  DenseMatrix d = op.MaterializeDense();
  ASSERT_EQ(d.rows(), op.rows());
  ASSERT_EQ(d.cols(), op.cols());

  Vec x = RandomVec(op.cols(), rng);
  Vec y1 = op.Apply(x);
  Vec y2 = d.Matvec(x);
  double ref = 1.0 + MaxAbs(y2);
  for (std::size_t i = 0; i < y1.size(); ++i)
    ASSERT_NEAR(y1[i], y2[i], tol * ref);

  Vec u = RandomVec(op.rows(), rng);
  Vec z1 = op.ApplyT(u);
  Vec z2 = d.RmatVec(u);
  ref = 1.0 + MaxAbs(z2);
  for (std::size_t j = 0; j < z1.size(); ++j)
    ASSERT_NEAR(z1[j], z2[j], tol * ref);

  EXPECT_NEAR(op.SensitivityL1(), d.MaxColNormL1(),
              tol * (1.0 + d.MaxColNormL1()));
  // Sensitivity is cached per instance; repeated calls must return the
  // exact same value (not merely a re-derivation within tolerance).
  EXPECT_EQ(op.SensitivityL1(), op.SensitivityL1());
  EXPECT_TRUE(op.Abs()->MaterializeDense().ApproxEquals(
      d.Abs(), tol * (1.0 + d.MaxColNormL1())));
  EXPECT_TRUE(op.MaterializeSparse().ToDense().ApproxEquals(d, tol * ref));

  // Blocked apply == column-by-column apply, both directions.
  const std::size_t kb = 1 + std::size_t(rng->UniformInt(1, 5));
  Block xb(op.cols(), kb);
  for (std::size_t c = 0; c < kb; ++c) xb.SetCol(c, RandomVec(op.cols(), rng));
  Block yb = op.ApplyBlock(xb);
  for (std::size_t c = 0; c < kb; ++c) {
    Vec want = op.Apply(xb.Col(c));
    Vec got = yb.Col(c);
    const double r = 1.0 + MaxAbs(want);
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_NEAR(got[i], want[i], tol * r) << "ApplyBlock col " << c;
  }
  Block ub(op.rows(), kb);
  for (std::size_t c = 0; c < kb; ++c) ub.SetCol(c, RandomVec(op.rows(), rng));
  Block zb = op.ApplyTBlock(ub);
  for (std::size_t c = 0; c < kb; ++c) {
    Vec want = op.ApplyT(ub.Col(c));
    Vec got = zb.Col(c);
    const double r = 1.0 + MaxAbs(want);
    for (std::size_t j = 0; j < want.size(); ++j)
      ASSERT_NEAR(got[j], want[j], tol * r) << "ApplyTBlock col " << c;
  }

  // Gram(): structured M^T M == densified M^T M, through both the operator
  // view and the sparse materialization used by GramSparse().
  DenseMatrix gram_want = d.Gram();
  // Gram entries are bounded by the largest column sum of squares.
  double max_col_sq = 0.0;
  for (std::size_t j = 0; j < d.cols(); ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < d.rows(); ++i) s += d.At(i, j) * d.At(i, j);
    max_col_sq = std::max(max_col_sq, s);
  }
  const double gtol = tol * (1.0 + max_col_sq) * double(op.rows() + 1);
  LinOpPtr g = op.Gram();
  ASSERT_EQ(g->rows(), op.cols());
  ASSERT_EQ(g->cols(), op.cols());
  EXPECT_TRUE(g->MaterializeDense().ApproxEquals(gram_want, gtol))
      << "Gram() of " << op.DebugName() << " is " << g->DebugName();
  EXPECT_TRUE(GramSparse(op).ToDense().ApproxEquals(gram_want, gtol));
}

class MatrixFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(MatrixFuzzTest, RandomOperatorTreesAreLossless) {
  Rng rng(777 + GetParam());
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t n = std::size_t(rng.UniformInt(2, 16));
    const std::size_t depth = std::size_t(rng.UniformInt(1, 3));
    LinOpPtr op = RandomTree(n, depth, &rng);
    if (op->rows() == 0 || op->rows() > 512 || op->cols() > 512) continue;
    CheckLossless(*op, &rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixFuzzTest, ::testing::Range(0, 12));

TEST(MatrixFuzzTest, TransposeInvolution) {
  Rng rng(99);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = std::size_t(rng.UniformInt(2, 12));
    LinOpPtr op = RandomTree(n, 2, &rng);
    if (op->rows() > 256) continue;
    LinOpPtr tt = MakeTranspose(MakeTranspose(op));
    EXPECT_TRUE(tt->MaterializeDense().ApproxEquals(
        op->MaterializeDense(), 1e-9));
    // (A^T)^T x == A x on a random probe.
    Vec x = RandomVec(n, &rng);
    Vec a = op->Apply(x);
    Vec b = tt->Apply(x);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST(MatrixFuzzTest, AdjointIdentityHolds) {
  // <A x, u> == <x, A^T u> for random trees and probes.
  Rng rng(101);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t n = std::size_t(rng.UniformInt(2, 16));
    LinOpPtr op = RandomTree(n, 2, &rng);
    if (op->rows() > 512) continue;
    Vec x = RandomVec(op->cols(), &rng);
    Vec u = RandomVec(op->rows(), &rng);
    const double lhs = Dot(op->Apply(x), u);
    const double rhs = Dot(x, op->ApplyT(u));
    EXPECT_NEAR(lhs, rhs, 1e-6 * (1.0 + std::abs(lhs)));
  }
}

TEST(MatrixFuzzTest, UnionSensitivityIsSumOfParts) {
  // For stacked non-negative ops, column norms add.
  Rng rng(103);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = std::size_t(rng.UniformInt(2, 20));
    auto a = MakeIdentityOp(n);
    auto b = MakePrefixOp(n);
    auto u = MakeVStack({a, b});
    EXPECT_NEAR(u->SensitivityL1(),
                a->SensitivityL1() + b->SensitivityL1(), 1e-9);
  }
}

}  // namespace
}  // namespace ektelo
