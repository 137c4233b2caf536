// Unit tests for the blocked operator core: the Block multi-vector, the
// dense/CSR/Haar blocked kernels, the LinOp default block fallbacks, the
// identity-panel materialization fallback, and structured Grams.

#include "gtest/gtest.h"
#include "linalg/block.h"
#include "linalg/haar.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/linop.h"
#include "util/rng.h"

namespace ektelo {
namespace {

Vec RandomVec(std::size_t n, Rng* rng) {
  Vec v(n);
  for (auto& x : v) x = rng->Normal();
  return v;
}

Block RandomBlock(std::size_t n, std::size_t k, Rng* rng) {
  Block b(n, k);
  for (std::size_t c = 0; c < k; ++c) b.SetCol(c, RandomVec(n, rng));
  return b;
}

DenseMatrix RandomDense(std::size_t m, std::size_t n, Rng* rng) {
  DenseMatrix d(m, n);
  for (double& v : d.data()) v = rng->Normal();
  return d;
}

/// Wraps an operator but exposes only the single-vector interface, so the
/// LinOp *default* block/materialize/Gram fallbacks are what gets tested.
class OpaqueOp final : public LinOp {
 public:
  explicit OpaqueOp(LinOpPtr inner)
      : LinOp(inner->rows(), inner->cols()), inner_(std::move(inner)) {}
  void ApplyRaw(const double* x, double* y) const override {
    inner_->ApplyRaw(x, y);
  }
  void ApplyTRaw(const double* x, double* y) const override {
    inner_->ApplyTRaw(x, y);
  }
  std::string DebugName() const override { return "Opaque"; }

 private:
  LinOpPtr inner_;
};

TEST(BlockTest, IdentityPanelAndColumnAccess) {
  Block p = Block::IdentityPanel(6, 2, 3);
  EXPECT_EQ(p.rows(), 6u);
  EXPECT_EQ(p.cols(), 3u);
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t i = 0; i < 6; ++i)
      EXPECT_DOUBLE_EQ(p.At(i, c), (i == 2 + c) ? 1.0 : 0.0);

  Vec v{1.0, 2.0, 3.0};
  Block b = Block::FromColumn(v, 2);
  EXPECT_EQ(b.Col(0), v);
  EXPECT_EQ(b.Col(1), v);
  b.SetCol(1, Vec{4.0, 5.0, 6.0});
  EXPECT_EQ(b.Col(0), v);
  EXPECT_DOUBLE_EQ(b.At(2, 1), 6.0);
}

TEST(BlockTest, DenseBlockedKernelsMatchMatvec) {
  Rng rng(11);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t m = 1 + std::size_t(rng.UniformInt(1, 12));
    const std::size_t n = 1 + std::size_t(rng.UniformInt(1, 12));
    const std::size_t k = 1 + std::size_t(rng.UniformInt(0, 6));
    DenseMatrix a = RandomDense(m, n, &rng);
    Block x = RandomBlock(n, k, &rng);
    Block y(m, k);
    DenseMatmat(a, x.data(), y.data(), k);
    for (std::size_t c = 0; c < k; ++c) {
      Vec want = a.Matvec(x.Col(c));
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(y.At(i, c), want[i], 1e-12);
    }
    Block u = RandomBlock(m, k, &rng);
    Block z(n, k);
    DenseRmatMat(a, u.data(), z.data(), k);
    for (std::size_t c = 0; c < k; ++c) {
      Vec want = a.RmatVec(u.Col(c));
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_NEAR(z.At(j, c), want[j], 1e-12);
    }
  }
}

TEST(BlockTest, CsrBlockedKernelsMatchMatvec) {
  Rng rng(13);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t m = 1 + std::size_t(rng.UniformInt(1, 12));
    const std::size_t n = 1 + std::size_t(rng.UniformInt(1, 12));
    const std::size_t k = 1 + std::size_t(rng.UniformInt(0, 6));
    std::vector<Triplet> t;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (rng.Uniform() < 0.35) t.push_back({i, j, rng.Normal()});
    CsrMatrix a = CsrMatrix::FromTriplets(m, n, std::move(t));
    Block x = RandomBlock(n, k, &rng);
    Block y(m, k);
    CsrMatmat(a, x.data(), y.data(), k);
    for (std::size_t c = 0; c < k; ++c) {
      Vec want = a.Matvec(x.Col(c));
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(y.At(i, c), want[i], 1e-12);
    }
    Block u = RandomBlock(m, k, &rng);
    Block z(n, k);
    CsrRmatMat(a, u.data(), z.data(), k);
    for (std::size_t c = 0; c < k; ++c) {
      Vec want = a.RmatVec(u.Col(c));
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_NEAR(z.At(j, c), want[j], 1e-12);
    }
  }
}

TEST(BlockTest, HaarBlockedKernelsMatchScalar) {
  Rng rng(17);
  for (std::size_t n : {1u, 2u, 8u, 32u}) {
    const std::size_t k = 3;
    Block x = RandomBlock(n, k, &rng);
    Block y(n, k);
    HaarAnalysisBlock(x.data(), y.data(), n, k);
    for (std::size_t c = 0; c < k; ++c) {
      Vec want(n);
      HaarAnalysis(x.ColPtr(c), want.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(y.At(i, c), want[i], 1e-12);
    }
    Block z(n, k);
    HaarSynthesisBlock(x.data(), z.data(), n, k);
    for (std::size_t c = 0; c < k; ++c) {
      Vec want(n);
      HaarSynthesis(x.ColPtr(c), want.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(z.At(i, c), want[i], 1e-12);
    }
  }
}

TEST(BlockTest, DefaultBlockFallbackLoopsColumns) {
  Rng rng(19);
  auto opaque = std::make_shared<OpaqueOp>(MakePrefixOp(9));
  Block x = RandomBlock(9, 4, &rng);
  Block y = opaque->ApplyBlock(x);
  for (std::size_t c = 0; c < 4; ++c) {
    Vec want = opaque->Apply(x.Col(c));
    EXPECT_EQ(y.Col(c), want);
  }
  Block u = RandomBlock(9, 4, &rng);
  Block z = opaque->ApplyTBlock(u);
  for (std::size_t c = 0; c < 4; ++c) {
    Vec want = opaque->ApplyT(u.Col(c));
    EXPECT_EQ(z.Col(c), want);
  }
}

TEST(BlockTest, PanelMaterializationMatchesStructuredAndDropsZeros) {
  // Domain > panel width so the fallback runs multiple panels.
  const std::size_t n = 3 * LinOp::kMaterializePanel / 2 + 5;
  auto prefix = MakePrefixOp(n);
  auto opaque = std::make_shared<OpaqueOp>(prefix);
  CsrMatrix got = opaque->MaterializeSparse();   // panel fallback
  CsrMatrix want = prefix->MaterializeSparse();  // direct construction
  EXPECT_TRUE(got.ToDense().ApproxEquals(want.ToDense(), 1e-12));
  // Prefix is lower triangular: exactly n(n+1)/2 nonzeros survive, i.e.
  // the strict upper triangle's exact zeros were dropped.
  EXPECT_EQ(got.nnz(), n * (n + 1) / 2);
}

TEST(BlockTest, GramOperatorOfOpaqueOpIsExact) {
  Rng rng(23);
  DenseMatrix d = RandomDense(7, 5, &rng);
  auto opaque = std::make_shared<OpaqueOp>(MakeDense(d));
  LinOpPtr g = opaque->Gram();
  DenseMatrix want = d.Gram();
  EXPECT_TRUE(g->MaterializeDense().ApproxEquals(want, 1e-10));
  // The composed Gram applies blocked end to end.
  Block x = RandomBlock(5, 3, &rng);
  Block y = g->ApplyBlock(x);
  for (std::size_t c = 0; c < 3; ++c) {
    Vec want_col = want.Matvec(x.Col(c));
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_NEAR(y.At(i, c), want_col[i], 1e-10);
  }
}

TEST(BlockTest, StructuredGramsHaveStructuredNames) {
  // Spot-check that the closed forms actually kick in (not the composed
  // default): Kron distributes, Identity is idempotent, VStack sums.
  auto kron = MakeKronecker(MakePrefixOp(4), MakeIdentityOp(3));
  EXPECT_EQ(kron->Gram()->DebugName().substr(0, 5), "Kron(");
  auto ident = MakeIdentityOp(5);
  EXPECT_EQ(ident->Gram().get(), ident.get());
  auto stack = MakeVStack({MakeIdentityOp(4), MakePrefixOp(4)});
  EXPECT_EQ(stack->Gram()->DebugName().substr(0, 4), "Sum(");
  auto scaled = MakeScaled(MakePrefixOp(4), 3.0);
  EXPECT_EQ(scaled->Gram()->DebugName().substr(0, 6), "Scale(");
}

TEST(BlockTest, GramWorksOnStackAllocatedOperators) {
  // Solver entry points take const LinOp&, so Gram() must not require the
  // operator to be owned by a shared_ptr.
  PrefixOp prefix(6);  // no structured Gram: exercises the composed default
  LinOpPtr g = prefix.Gram();
  DenseMatrix want = prefix.MaterializeDense().Gram();
  EXPECT_TRUE(g->MaterializeDense().ApproxEquals(want, 1e-12));
  IdentityOp ident(4);  // structured Gram returning the operator itself
  EXPECT_TRUE(ident.Gram()->MaterializeDense().ApproxEquals(
      DenseMatrix::Identity(4), 1e-12));
}

TEST(BlockTest, SensitivityCachingIsStableAcrossRepeatedCalls) {
  // Regression: the cached sensitivity must be bit-identical on repeat
  // and equal to the materialized column norm.
  auto op = MakeVStack({MakeWaveletOp(16), MakePrefixOp(16)});
  const double l1_first = op->SensitivityL1();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(op->SensitivityL1(), l1_first);
  DenseMatrix d = op->MaterializeDense();
  EXPECT_NEAR(l1_first, d.MaxColNormL1(), 1e-9);
}

}  // namespace
}  // namespace ektelo
