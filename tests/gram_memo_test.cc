// Gram memoization: NNLS derives its Gram and spectral-norm estimate
// through the OperatorCache, so repeated solves of structurally identical
// stacks skip the per-solve re-derivation bitwise-invisibly.
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "matrix/nnls.h"
#include "matrix/rewrite.h"
#include "util/rng.h"

namespace ektelo {
namespace {

// ---------------------------------------------------- Gram memoization

/// Wraps a sparse matrix and counts Gram() derivations.  As an unknown
/// LinOp subclass it hashes per-instance, so cache hits only occur for
/// the *same* shared instance — which is exactly the repeated-solve
/// pattern the memoization targets.
class CountingGramOp final : public LinOp {
 public:
  explicit CountingGramOp(CsrMatrix m)
      : LinOp(m.rows(), m.cols()), m_(std::move(m)) {}
  void ApplyRaw(const double* x, double* y) const override {
    m_.Matvec(x, y);
  }
  void ApplyTRaw(const double* x, double* y) const override {
    m_.RmatVec(x, y);
  }
  LinOpPtr Gram() const override {
    ++gram_calls;
    return MakeSparse(m_.Transpose().Matmul(m_));
  }
  std::string DebugName() const override { return "CountingGram"; }
  mutable std::atomic<int> gram_calls{0};

 private:
  CsrMatrix m_;
};

CsrMatrix TestMatrix(std::size_t m, std::size_t n) {
  Rng rng(99);
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng.Uniform() < 0.4) t.push_back({i, j, rng.Normal() + 2.0});
  return CsrMatrix::FromTriplets(m, n, std::move(t));
}

TEST(GramMemoTest, NnlsDerivesTheGramOncePerStructure) {
  OperatorCache::Global().Clear();
  SetRewriteEnabled(true);
  auto op = std::make_shared<CountingGramOp>(TestMatrix(24, 10));
  Vec b(24);
  Rng rng(5);
  for (auto& v : b) v = rng.Normal() + 1.0;

  NnlsResult first = Nnls(*op, b);
  EXPECT_EQ(op->gram_calls.load(), 1);
  NnlsResult second = Nnls(*op, b);
  // Second solve: Gram and Lipschitz estimate both come from the cache.
  EXPECT_EQ(op->gram_calls.load(), 1);
  ASSERT_EQ(first.x.size(), second.x.size());
  for (std::size_t i = 0; i < first.x.size(); ++i)
    EXPECT_TRUE(BitwiseEq(first.x[i], second.x[i])) << i;

  // The cached path must be bitwise-identical to the uncached one.
  SetRewriteEnabled(false);
  auto fresh = std::make_shared<CountingGramOp>(TestMatrix(24, 10));
  NnlsResult uncached = Nnls(*fresh, b);
  SetRewriteEnabled(true);
  EXPECT_EQ(uncached.iterations, first.iterations);
  for (std::size_t i = 0; i < first.x.size(); ++i)
    EXPECT_TRUE(BitwiseEq(first.x[i], uncached.x[i])) << i;
  OperatorCache::Global().Clear();
}

TEST(GramMemoTest, StackAllocatedOperatorsStayUncachedButCorrect) {
  // No shared ownership -> no safe cache key; the solver must fall back
  // to per-solve derivation without touching the cache.
  OperatorCache::Global().Clear();
  CountingGramOp op(TestMatrix(16, 6));
  Vec b(16, 1.0);
  NnlsResult r1 = Nnls(op, b);
  NnlsResult r2 = Nnls(op, b);
  EXPECT_EQ(op.gram_calls.load(), 2);
  for (std::size_t i = 0; i < r1.x.size(); ++i)
    EXPECT_TRUE(BitwiseEq(r1.x[i], r2.x[i])) << i;
}

}  // namespace
}  // namespace ektelo
