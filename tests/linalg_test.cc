// Tests for the dense/CSR/Haar linear-algebra substrate.
#include <cmath>

#include "gtest/gtest.h"
#include "linalg/csr.h"
#include "linalg/dense.h"
#include "linalg/haar.h"
#include "linalg/vec.h"
#include "util/rng.h"

namespace ektelo {
namespace {

DenseMatrix RandomDense(std::size_t m, std::size_t n, Rng* rng,
                        double density = 1.0) {
  DenseMatrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng->Uniform() < density) a.At(i, j) = rng->Normal();
  return a;
}

Vec RandomVec(std::size_t n, Rng* rng) {
  Vec v(n);
  for (auto& x : v) x = rng->Normal();
  return v;
}

TEST(VecTest, DotAndNorms) {
  Vec a = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(Dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(Norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(Norm1(a), 7.0);
  EXPECT_DOUBLE_EQ(Sum(a), -1.0);
  EXPECT_DOUBLE_EQ(MaxAbs(a), 4.0);
}

TEST(VecTest, AxpyAndRmse) {
  Vec x = {1.0, 2.0};
  Vec y = {10.0, 20.0};
  Axpy(2.0, x, &y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(Rmse(x, x), 0.0);
  EXPECT_DOUBLE_EQ(Rmse(Vec{0.0, 0.0}, Vec{3.0, 4.0}),
                   std::sqrt(25.0 / 2.0));
}

TEST(DenseTest, MatvecAgainstHand) {
  DenseMatrix a(2, 3);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(0, 2) = 3;
  a.At(1, 0) = 4;
  a.At(1, 1) = 5;
  a.At(1, 2) = 6;
  Vec y = a.Matvec({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  Vec z = a.RmatVec({1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(DenseTest, TransposeRoundTrip) {
  Rng rng(1);
  DenseMatrix a = RandomDense(4, 7, &rng);
  EXPECT_TRUE(a.Transpose().Transpose().ApproxEquals(a));
}

TEST(DenseTest, MatmulMatchesManual) {
  Rng rng(2);
  DenseMatrix a = RandomDense(3, 4, &rng);
  DenseMatrix b = RandomDense(4, 5, &rng);
  DenseMatrix c = a.Matmul(b);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < 4; ++k) s += a.At(i, k) * b.At(k, j);
      EXPECT_NEAR(c.At(i, j), s, 1e-12);
    }
}

TEST(DenseTest, GramMatchesTransposeProduct) {
  Rng rng(3);
  DenseMatrix a = RandomDense(6, 4, &rng);
  DenseMatrix g = a.Gram();
  DenseMatrix g2 = a.Transpose().Matmul(a);
  EXPECT_TRUE(g.ApproxEquals(g2, 1e-10));
}

TEST(DenseTest, ColNorms) {
  DenseMatrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(1, 0) = -2;
  a.At(0, 1) = 0.5;
  EXPECT_DOUBLE_EQ(a.MaxColNormL1(), 3.0);
}

TEST(CholeskyTest, FactorAndSolveSpd) {
  Rng rng(4);
  DenseMatrix a = RandomDense(8, 5, &rng);
  DenseMatrix g = a.Gram();
  for (std::size_t i = 0; i < 5; ++i) g.At(i, i) += 1.0;  // ensure SPD
  Vec x_true = RandomVec(5, &rng);
  Vec b = g.Matvec(x_true);
  DenseMatrix chol = g;
  ASSERT_TRUE(CholeskyFactor(&chol));
  Vec x = CholeskySolve(chol, b);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(CholeskyTest, RejectsIndefinite) {
  DenseMatrix a(2, 2);
  a.At(0, 0) = 1.0;
  a.At(1, 1) = -1.0;
  EXPECT_FALSE(CholeskyFactor(&a));
}

TEST(DirectLsTest, RecoversOverdeterminedSolution) {
  Rng rng(5);
  DenseMatrix a = RandomDense(20, 6, &rng);
  Vec x_true = RandomVec(6, &rng);
  Vec b = a.Matvec(x_true);
  Vec x = DirectLeastSquares(a, b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-5);
}

TEST(PseudoInverseTest, LeftInverseOnFullColumnRank) {
  Rng rng(6);
  DenseMatrix a = RandomDense(10, 4, &rng);
  DenseMatrix pinv = PseudoInverse(a);
  DenseMatrix id = pinv.Matmul(a);
  EXPECT_TRUE(id.ApproxEquals(DenseMatrix::Identity(4), 1e-5));
}

// ------------------------------------------------------------------- CSR

TEST(CsrTest, FromTripletsSumsDuplicates) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}});
  EXPECT_EQ(m.nnz(), 2u);
  DenseMatrix d = m.ToDense();
  EXPECT_DOUBLE_EQ(d.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(d.At(1, 1), 5.0);
}

TEST(CsrTest, MatvecMatchesDense) {
  Rng rng(7);
  DenseMatrix d = RandomDense(9, 13, &rng, 0.3);
  CsrMatrix s = CsrMatrix::FromDense(d);
  Vec x = RandomVec(13, &rng);
  Vec y1 = d.Matvec(x);
  Vec y2 = s.Matvec(x);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
  Vec u = RandomVec(9, &rng);
  Vec z1 = d.RmatVec(u);
  Vec z2 = s.RmatVec(u);
  for (std::size_t j = 0; j < 13; ++j) EXPECT_NEAR(z1[j], z2[j], 1e-12);
}

TEST(CsrTest, TransposeMatchesDense) {
  Rng rng(8);
  DenseMatrix d = RandomDense(5, 8, &rng, 0.4);
  CsrMatrix s = CsrMatrix::FromDense(d);
  EXPECT_TRUE(s.Transpose().ToDense().ApproxEquals(d.Transpose(), 1e-12));
}

TEST(CsrTest, MatmulMatchesDense) {
  Rng rng(9);
  DenseMatrix da = RandomDense(4, 6, &rng, 0.5);
  DenseMatrix db = RandomDense(6, 3, &rng, 0.5);
  CsrMatrix sa = CsrMatrix::FromDense(da);
  CsrMatrix sb = CsrMatrix::FromDense(db);
  EXPECT_TRUE(sa.Matmul(sb).ToDense().ApproxEquals(da.Matmul(db), 1e-10));
}

TEST(CsrTest, KroneckerMatchesDenseDefinition) {
  Rng rng(10);
  DenseMatrix da = RandomDense(2, 3, &rng);
  DenseMatrix db = RandomDense(3, 2, &rng);
  CsrMatrix k =
      CsrMatrix::FromDense(da).Kronecker(CsrMatrix::FromDense(db));
  ASSERT_EQ(k.rows(), 6u);
  ASSERT_EQ(k.cols(), 6u);
  DenseMatrix kd = k.ToDense();
  for (std::size_t ia = 0; ia < 2; ++ia)
    for (std::size_t ib = 0; ib < 3; ++ib)
      for (std::size_t ja = 0; ja < 3; ++ja)
        for (std::size_t jb = 0; jb < 2; ++jb)
          EXPECT_NEAR(kd.At(ia * 3 + ib, ja * 2 + jb),
                      da.At(ia, ja) * db.At(ib, jb), 1e-12);
}

TEST(CsrTest, VStackStacks) {
  CsrMatrix a = CsrMatrix::Identity(2);
  CsrMatrix b = CsrMatrix::FromTriplets(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  CsrMatrix s = a.VStack(b);
  ASSERT_EQ(s.rows(), 3u);
  DenseMatrix d = s.ToDense();
  EXPECT_DOUBLE_EQ(d.At(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.At(2, 1), 1.0);
}

TEST(CsrTest, ScaleRowsAndNorms) {
  CsrMatrix a = CsrMatrix::FromTriplets(2, 2,
                                        {{0, 0, 1.0}, {1, 0, -2.0},
                                         {1, 1, 1.0}});
  CsrMatrix s = a.ScaleRows({2.0, 3.0});
  DenseMatrix d = s.ToDense();
  EXPECT_DOUBLE_EQ(d.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d.At(1, 0), -6.0);
  EXPECT_DOUBLE_EQ(a.MaxColNormL1(), 3.0);
}

// ------------------------------------------------------------------ Haar

TEST(HaarTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(12));
  EXPECT_EQ(NextPowerOfTwo(12), 16u);
  EXPECT_EQ(NextPowerOfTwo(16), 16u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
}

TEST(HaarTest, AnalysisMatchesMaterializedMatrix) {
  Rng rng(11);
  for (std::size_t n : {2u, 8u, 32u}) {
    CsrMatrix h = HaarMatrixSparse(n);
    Vec x = RandomVec(n, &rng);
    Vec y_fast(n), y_mat = h.Matvec(x);
    HaarAnalysis(x.data(), y_fast.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y_fast[i], y_mat[i], 1e-10);
  }
}

TEST(HaarTest, SynthesisIsTransposedAnalysis) {
  Rng rng(12);
  for (std::size_t n : {4u, 16u}) {
    CsrMatrix h = HaarMatrixSparse(n);
    Vec x = RandomVec(n, &rng);
    Vec y_fast(n), y_mat = h.RmatVec(x);
    HaarSynthesis(x.data(), y_fast.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y_fast[i], y_mat[i], 1e-10);
  }
}

TEST(HaarTest, FirstCoefficientIsTotal) {
  Vec x = {1.0, 2.0, 3.0, 4.0};
  Vec y(4);
  HaarAnalysis(x.data(), y.data(), 4);
  EXPECT_DOUBLE_EQ(y[0], 10.0);   // total
  EXPECT_DOUBLE_EQ(y[1], -4.0);   // (1+2) - (3+4)
  EXPECT_DOUBLE_EQ(y[2], -1.0);   // 1 - 2
  EXPECT_DOUBLE_EQ(y[3], -1.0);   // 3 - 4
}

TEST(HaarTest, SensitivityIsLogarithmic) {
  // Every column of the Haar matrix has L1 norm exactly 1 + log2(n).
  for (std::size_t n : {2u, 16u, 64u}) {
    CsrMatrix h = HaarMatrixSparse(n);
    EXPECT_DOUBLE_EQ(h.MaxColNormL1(), 1.0 + std::log2(double(n)));
  }
}

}  // namespace
}  // namespace ektelo
