// Rewrite-correctness fuzz: random conforming LinOp trees (depth <= 5
// over dense / CSR / Haar / Kron / Scale / VStack / HStack / Sum /
// Product / RowWeight / Transpose / RangeSet leaves) must represent the
// same matrix after Rewrite() — Apply, ApplyT and Gram agree to 1e-12
// relative to the |A||x| error scale — and structurally equal inputs must
// rewrite to structurally equal outputs.
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

std::size_t PickTop(Rng* rng, std::size_t n) {
  return static_cast<std::size_t>(rng->UniformInt(0, int64_t(n) - 1));
}

Vec RandomVec(std::size_t n, Rng* rng) {
  Vec v(n);
  for (auto& x : v) x = rng->Normal();
  return v;
}

class TreeGen {
 public:
  explicit TreeGen(Rng* rng) : rng_(rng) {}

  /// Any operator, free shape.
  LinOpPtr Any(int depth) {
    if (depth <= 0) return Leaf(Dim(), Dim());
    switch (Pick(8)) {
      case 0: {  // Product: inner dims conform
        LinOpPtr a = Shaped(depth - 1, Dim(), Dim());
        LinOpPtr b = Shaped(depth - 1, a->cols(), Dim());
        return MakeProduct(a, b);
      }
      case 1: {  // Kronecker of two small factors
        LinOpPtr a = Shaped(depth - 1, SmallDim(), SmallDim());
        LinOpPtr b = Shaped(depth - 1, SmallDim(), SmallDim());
        return MakeKronecker(a, b);
      }
      case 2: {  // VStack: shared cols
        const std::size_t cols = Dim();
        std::vector<LinOpPtr> cs;
        const std::size_t k = 2 + Pick(2);
        for (std::size_t i = 0; i < k; ++i)
          cs.push_back(Shaped(depth - 1, Dim(), cols));
        return MakeVStack(std::move(cs));
      }
      case 3: {  // HStack: shared rows
        const std::size_t rows = Dim();
        std::vector<LinOpPtr> cs;
        const std::size_t k = 2 + Pick(2);
        for (std::size_t i = 0; i < k; ++i)
          cs.push_back(Shaped(depth - 1, rows, Dim()));
        return MakeHStack(std::move(cs));
      }
      case 4: {  // Sum: shared shape
        const std::size_t rows = Dim(), cols = Dim();
        std::vector<LinOpPtr> cs;
        const std::size_t k = 2 + Pick(2);
        for (std::size_t i = 0; i < k; ++i)
          cs.push_back(Shaped(depth - 1, rows, cols));
        return MakeSum(std::move(cs));
      }
      case 5:
        return MakeScaled(Any(depth - 1), ScaleValue());
      case 6: {
        LinOpPtr c = Any(depth - 1);
        return MakeRowWeight(c, RandomVec(c->rows(), rng_));
      }
      default:
        return MakeTranspose(Any(depth - 1));
    }
  }

  /// An operator with the requested shape (wrappers + leaves only, so any
  /// shape is realizable).
  LinOpPtr Shaped(int depth, std::size_t rows, std::size_t cols) {
    if (depth <= 0) return Leaf(rows, cols);
    switch (Pick(6)) {
      case 0:
        return MakeScaled(Shaped(depth - 1, rows, cols), ScaleValue());
      case 1:
        return MakeRowWeight(Shaped(depth - 1, rows, cols),
                             RandomVec(rows, rng_));
      case 2:
        return MakeTranspose(Shaped(depth - 1, cols, rows));
      case 3: {  // split rows across a VStack
        if (rows < 2) return Leaf(rows, cols);
        const std::size_t r1 = 1 + Pick(rows - 1);
        return MakeVStack({Shaped(depth - 1, r1, cols),
                           Shaped(depth - 1, rows - r1, cols)});
      }
      case 4: {  // product through a small inner dim
        const std::size_t k = 1 + Pick(6);
        return MakeProduct(Shaped(depth - 1, rows, k),
                           Shaped(depth - 1, k, cols));
      }
      default:
        return Leaf(rows, cols);
    }
  }

 private:
  /// Uniform in [0, n).
  std::size_t Pick(std::size_t n) {
    return static_cast<std::size_t>(rng_->UniformInt(0, int64_t(n) - 1));
  }
  std::size_t Dim() { return 1 + Pick(10); }
  std::size_t SmallDim() { return 1 + Pick(4); }
  double ScaleValue() { return rng_->Normal() + 0.25; }

  LinOpPtr Leaf(std::size_t rows, std::size_t cols) {
    switch (Pick(6)) {
      case 0: {  // dense
        DenseMatrix m(rows, cols);
        for (auto& v : m.data()) v = rng_->Normal();
        return MakeDense(std::move(m));
      }
      case 1: {  // sparse
        std::vector<Triplet> t;
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t j = 0; j < cols; ++j)
            if (rng_->Uniform() < 0.4) t.push_back({i, j, rng_->Normal()});
        return MakeSparse(CsrMatrix::FromTriplets(rows, cols, std::move(t)));
      }
      case 2: {  // range set
        std::vector<Interval> ranges;
        for (std::size_t q = 0; q < rows; ++q) {
          std::size_t lo = Pick(cols);
          std::size_t hi = lo + Pick(cols - lo);
          ranges.push_back({lo, hi});
        }
        return MakeRangeSetOp(std::move(ranges), cols);
      }
      case 3:
        if (rows == cols) return MakeIdentityOp(rows);
        return MakeOnesOp(rows, cols);
      case 4:
        if (rows == cols && IsPowerOfTwoDim(rows)) return MakeWaveletOp(rows);
        return MakeOnesOp(rows, cols);
      default:
        if (rows == cols) return MakePrefixOp(rows);
        return MakeOnesOp(rows, cols);
    }
  }

  static bool IsPowerOfTwoDim(std::size_t n) {
    return n >= 1 && (n & (n - 1)) == 0;
  }

  Rng* rng_;
};

/// |A| |x|: the natural error scale of evaluating A x in floating point.
Vec AbsApply(const LinOp& op, const Vec& x) {
  Vec ax(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ax[i] = std::abs(x[i]);
  return op.Abs()->Apply(ax);
}

Vec AbsApplyT(const LinOp& op, const Vec& x) {
  Vec ax(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ax[i] = std::abs(x[i]);
  return op.Abs()->ApplyT(ax);
}

TEST(RewriteFuzzTest, RandomTreesAgreeAfterRewrite) {
  Rng rng(20240719);
  TreeGen gen(&rng);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    LinOpPtr op = gen.Any(2 + PickTop(&rng, 4));  // depth 2..5
    LinOpPtr r = Rewrite(op);
    SCOPED_TRACE(op->DebugName() + " -> " + r->DebugName());
    ASSERT_EQ(r->rows(), op->rows());
    ASSERT_EQ(r->cols(), op->cols());

    Vec x = RandomVec(op->cols(), &rng);
    Vec y0 = op->Apply(x);
    Vec y1 = r->Apply(x);
    Vec yscale = AbsApply(*op, x);
    for (std::size_t i = 0; i < y0.size(); ++i)
      ASSERT_NEAR(y0[i], y1[i], 1e-12 * std::max(1.0, yscale[i])) << i;

    Vec u = RandomVec(op->rows(), &rng);
    Vec z0 = op->ApplyT(u);
    Vec z1 = r->ApplyT(u);
    Vec zscale = AbsApplyT(*op, u);
    for (std::size_t i = 0; i < z0.size(); ++i)
      ASSERT_NEAR(z0[i], z1[i], 1e-12 * std::max(1.0, zscale[i])) << i;

    // Gram agreement (G x = A^T (A x)): scale by |A^T||A||x|.
    Vec g0 = op->Gram()->Apply(x);
    Vec g1 = r->Gram()->Apply(x);
    Vec gscale = AbsApplyT(*op, AbsApply(*op, x));
    for (std::size_t i = 0; i < g0.size(); ++i)
      ASSERT_NEAR(g0[i], g1[i], 1e-12 * std::max(1.0, gscale[i])) << i;
  }
}

/// Same shape, same construction and bitwise the same entries.
void ExpectSameTree(const LinOp& a, const LinOp& b) {
  EXPECT_EQ(a.DebugName(), b.DebugName());
  EXPECT_TRUE(BitwiseEq(a.MaterializeDense().data(),
                        b.MaterializeDense().data()))
      << a.DebugName();
}

TEST(RewriteFuzzTest, EqualTreesRewriteToEqualTrees) {
  // Rewriting is deterministic: two independently built copies of one
  // tree canonicalize to the same construction with bitwise-equal entries.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng r1(seed), r2(seed);
    TreeGen g1(&r1), g2(&r2);
    LinOpPtr a = g1.Any(4);
    LinOpPtr b = g2.Any(4);
    ASSERT_NE(a.get(), b.get());
    ExpectSameTree(*a, *b);
    ExpectSameTree(*Rewrite(a), *Rewrite(b));
  }
}

}  // namespace
}  // namespace ektelo
