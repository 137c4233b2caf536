// NNLS Gram derivation: the solver keeps no memo of Grams or Lipschitz
// estimates, so every solve derives its Gram exactly once from the
// operator it is given, shared or stack-allocated, and repeated solves of
// the same system land bitwise on the same point.
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "matrix/linop.h"
#include "matrix/nnls.h"
#include "util/rng.h"

namespace ektelo {
namespace {

/// Wraps a sparse matrix and counts Gram() derivations.
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

TEST(GramMemoTest, NnlsDerivesTheGramOncePerSolve) {
  auto op = std::make_shared<CountingGramOp>(TestMatrix(24, 10));
  Vec b(24);
  Rng rng(5);
  for (auto& v : b) v = rng.Normal() + 1.0;

  NnlsResult first = Nnls(*op, b);
  EXPECT_EQ(op->gram_calls.load(), 1);
  NnlsResult second = Nnls(*op, b);
  // No memo: the second solve of the same shared instance derives again.
  EXPECT_EQ(op->gram_calls.load(), 2);
  EXPECT_EQ(first.iterations, second.iterations);
  ASSERT_EQ(first.x.size(), second.x.size());
  for (std::size_t i = 0; i < first.x.size(); ++i)
    EXPECT_TRUE(BitwiseEq(first.x[i], second.x[i])) << i;

  // A fresh instance of the same matrix reaches the same point bitwise.
  auto fresh = std::make_shared<CountingGramOp>(TestMatrix(24, 10));
  NnlsResult other = Nnls(*fresh, b);
  EXPECT_EQ(fresh->gram_calls.load(), 1);
  EXPECT_EQ(other.iterations, first.iterations);
  for (std::size_t i = 0; i < first.x.size(); ++i)
    EXPECT_TRUE(BitwiseEq(first.x[i], other.x[i])) << i;
}

TEST(GramMemoTest, StackAllocatedOperatorsSolveCorrectly) {
  // Each solve derives its own Gram; repeated solves land on the same
  // point, and that point is the one the same matrix reaches behind a
  // shared SparseOp.
  CountingGramOp op(TestMatrix(16, 6));
  Vec b(16, 1.0);
  NnlsResult r1 = Nnls(op, b);
  NnlsResult r2 = Nnls(op, b);
  EXPECT_EQ(op.gram_calls.load(), 2);
  NnlsResult shared = Nnls(*MakeSparse(TestMatrix(16, 6)), b);
  ASSERT_EQ(r1.x.size(), 6u);
  for (std::size_t i = 0; i < r1.x.size(); ++i) {
    EXPECT_TRUE(BitwiseEq(r1.x[i], r2.x[i])) << i;
    EXPECT_NEAR(r1.x[i], shared.x[i], 1e-9) << i;
    EXPECT_GE(r1.x[i], 0.0) << i;
  }
}

}  // namespace
}  // namespace ektelo
