// Tests for the iterative solvers (LSMR, NNLS) that power EKTELO's
// general-purpose inference operators.
#include <cmath>

#include "gtest/gtest.h"
#include "linalg/dense.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/lsmr.h"
#include "matrix/nnls.h"
#include "util/rng.h"

namespace ektelo {
namespace {

Vec RandomVec(std::size_t n, Rng* rng) {
  Vec v(n);
  for (auto& x : v) x = rng->Normal();
  return v;
}

DenseMatrix RandomDense(std::size_t m, std::size_t n, Rng* rng) {
  DenseMatrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a.At(i, j) = rng->Normal();
  return a;
}

TEST(LsmrTest, SolvesConsistentSquareSystem) {
  Rng rng(1);
  DenseMatrix a = RandomDense(8, 8, &rng);
  Vec x_true = RandomVec(8, &rng);
  Vec b = a.Matvec(x_true);
  auto op = MakeDense(a);
  LsmrResult res = Lsmr(*op, b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(res.x[i], x_true[i], 1e-6);
  EXPECT_LT(res.residual_norm, 1e-6 * Norm2(b) + 1e-9);
}

TEST(LsmrTest, MatchesDirectLeastSquaresOverdetermined) {
  Rng rng(2);
  DenseMatrix a = RandomDense(30, 10, &rng);
  Vec b = RandomVec(30, &rng);
  Vec x_direct = DirectLeastSquares(a, b);
  LsmrResult res = Lsmr(*MakeDense(a), b);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(res.x[i], x_direct[i], 1e-5);
}

TEST(LsmrTest, MinimumNormSolutionUnderdetermined) {
  // For rank-deficient/underdetermined systems LSMR converges to the
  // minimum-norm least-squares solution, like the pseudo-inverse.
  Rng rng(3);
  DenseMatrix a = RandomDense(4, 10, &rng);
  Vec b = RandomVec(4, &rng);
  LsmrResult res = Lsmr(*MakeDense(a), b);
  // Residual should be ~0 (system is consistent w.h.p.).
  Vec ax = a.Matvec(res.x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(ax[i], b[i], 1e-6);
  // Minimum-norm: x must lie in the row space, x = A^T z.
  // Check by comparing against pinv solution.
  DenseMatrix at = a.Transpose();
  Vec z = DirectLeastSquares(at, res.x);  // z: A^T z ≈ x
  Vec x_rowspace = at.Matvec(z);
  for (std::size_t j = 0; j < 10; ++j)
    EXPECT_NEAR(res.x[j], x_rowspace[j], 1e-4);
}

TEST(LsmrTest, ZeroRhsGivesZero) {
  auto op = MakeIdentityOp(5);
  LsmrResult res = Lsmr(*op, Vec(5, 0.0));
  for (double v : res.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(LsmrTest, IterationLimitReportsStopCode7) {
  // An ill-conditioned dense system cannot converge in two iterations, so
  // the loop exits on max_iters; istop 0 would claim x = 0 is exact.
  Rng rng(4);
  DenseMatrix a = RandomDense(12, 12, &rng);
  for (std::size_t j = 0; j < 12; ++j) a.At(0, j) *= 1e6;
  auto op = MakeDense(a);
  LsmrOptions opts;
  opts.max_iters = 2;
  LsmrResult res = Lsmr(*op, RandomVec(12, &rng), opts);
  EXPECT_EQ(res.iterations, 2u);
  EXPECT_EQ(res.istop, 7);
}

TEST(LsmrTest, WorksOnImplicitHierarchy) {
  // H = [Total; Identity] measured exactly should reconstruct x exactly.
  const std::size_t n = 64;
  auto m = MakeVStack({MakeTotalOp(n), MakeIdentityOp(n)});
  Rng rng(4);
  Vec x_true(n);
  for (auto& v : x_true) v = std::abs(rng.Normal()) * 10.0;
  Vec y = m->Apply(x_true);
  LsmrResult res = Lsmr(*m, y);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(res.x[i], x_true[i], 1e-6);
}

TEST(LsmrTest, WeightedMeasurementsViaRowWeight) {
  // Weighting rows (precision weighting) changes the LS solution in the
  // expected direction: the heavily weighted duplicate dominates.
  const std::size_t n = 4;
  // Two copies of Identity with different weights and conflicting y.
  auto id = MakeIdentityOp(n);
  auto heavy = MakeRowWeight(id, Vec(n, 10.0));
  auto m = MakeVStack({id, heavy});
  Vec y(2 * n);
  for (std::size_t i = 0; i < n; ++i) y[i] = 0.0;          // light: says 0
  for (std::size_t i = 0; i < n; ++i) y[n + i] = 10.0;     // heavy: says 1
  LsmrResult res = Lsmr(*m, y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT(res.x[i], 0.9);  // pulled toward heavy-weight value 1.0
    EXPECT_LT(res.x[i], 1.01);
  }
}

TEST(NnlsTest, MatchesUnconstrainedWhenInteriorSolution) {
  Rng rng(5);
  DenseMatrix a = RandomDense(20, 6, &rng);
  Vec x_true(6);
  for (auto& v : x_true) v = std::abs(rng.Normal()) + 0.5;  // positive
  Vec b = a.Matvec(x_true);
  NnlsResult res = Nnls(*MakeDense(a), b, {.max_iters = 2000, .tol = 1e-12});
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(res.x[i], x_true[i], 1e-4);
}

TEST(NnlsTest, ClampsNegativeComponents) {
  // min ||x - b|| with b negative => x = 0.
  auto id = MakeIdentityOp(3);
  NnlsResult res = Nnls(*id, {-1.0, -2.0, 3.0});
  EXPECT_NEAR(res.x[0], 0.0, 1e-9);
  EXPECT_NEAR(res.x[1], 0.0, 1e-9);
  EXPECT_NEAR(res.x[2], 3.0, 1e-6);
}

TEST(NnlsTest, AllZeroIsFeasible) {
  auto id = MakeIdentityOp(4);
  NnlsResult res = Nnls(*id, Vec(4, 0.0));
  for (double v : res.x) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(NnlsTest, HierarchicalMeasurementsNonneg) {
  const std::size_t n = 32;
  auto m = MakeVStack({MakeTotalOp(n), MakeIdentityOp(n)});
  Rng rng(6);
  Vec x_true(n);
  for (auto& v : x_true) v = std::max(0.0, rng.Normal() * 5.0);
  Vec y = m->Apply(x_true);
  // Perturb y so the unconstrained solution would go negative.
  for (auto& v : y) v += rng.Laplace(2.0);
  NnlsResult res = Nnls(*m, y, {.max_iters = 1000});
  for (double v : res.x) EXPECT_GE(v, -1e-12);
}

TEST(SpectralNormTest, MatchesKnownValue) {
  // Identity has spectral norm^2 = 1; Ones(m,n) has ||A||_2^2 = m*n.
  EXPECT_NEAR(EstimateSpectralNormSq(*MakeIdentityOp(10)), 1.0, 1e-6);
  EXPECT_NEAR(EstimateSpectralNormSq(*MakeOnesOp(3, 4), 100), 12.0, 1e-4);
}

TEST(SpectralNormTest, ZeroItersStillEstimates) {
  // iters == 0 used to return the uninitialized placeholder 1.0 for every
  // operator; the guard clamps to one power step, which is exact for any
  // diagonal "gram" with a single scale.
  EXPECT_NEAR(EstimateSpectralNormSqGram(*MakeScaled(MakeIdentityOp(8), 7.0),
                                         0),
              7.0, 1e-9);
}

TEST(SpectralNormTest, SurvivesHugeNormGram) {
  // A pathological Gram with entries ~1e200: the sum of squares inside a
  // naive Norm2 overflows to inf, so the estimate must pre-scale the
  // iterate by its max magnitude each iteration.
  const double huge = 1e200;
  auto gram = MakeScaled(MakeIdentityOp(64), huge);
  const double est = EstimateSpectralNormSqGram(*gram, 10);
  ASSERT_TRUE(std::isfinite(est));
  EXPECT_NEAR(est / huge, 1.0, 1e-9);
}

// Counts every forward/transposed traversal of the wrapped operator, so a
// test can reconstruct exactly how many FISTA passes ran (one Gram apply
// per pass through the default Gram composition).
class CountingOp final : public LinOp {
 public:
  explicit CountingOp(LinOpPtr child)
      : LinOp(child->rows(), child->cols()), child_(std::move(child)) {}
  void ApplyRaw(const double* x, double* y) const override {
    ++fwd_;
    child_->ApplyRaw(x, y);
  }
  void ApplyTRaw(const double* x, double* y) const override {
    ++tr_;
    child_->ApplyTRaw(x, y);
  }
  std::string DebugName() const override { return "Counting"; }
  std::size_t fwd() const { return fwd_; }

 private:
  LinOpPtr child_;
  mutable std::size_t fwd_ = 0, tr_ = 0;
};

TEST(NnlsTest, IterationCountMatchesGramAppliesUnderRestarts) {
  // A rank-1 operator whose dominant direction carries almost no weight
  // in the deterministic power-iteration start vector: one power step
  // underestimates the Lipschitz constant badly, the gradient step
  // overshoots, and the monotone restart branch fires repeatedly.  The
  // restart path used to double-increment the loop counter, so
  // NnlsResult::iterations exceeded the number of Gram applies actually
  // performed (and max_iters was effectively halved).
  const std::size_t n = 64;
  DenseMatrix a(1, n);
  a.At(0, n - 1) = 100.0;
  auto counting = std::make_shared<CountingOp>(MakeDense(std::move(a)));
  Vec b{500.0};
  NnlsOptions opts;
  opts.max_iters = 40;
  opts.power_iters = 1;
  opts.tol = 0.0;  // never converge early: exercise the full loop
  NnlsResult res = Nnls(*counting, b, opts);
  // Forward traversals: power_iters + initial G x0 + one per pass + the
  // final residual report.
  ASSERT_GE(counting->fwd(), opts.power_iters + 2);
  const std::size_t passes = counting->fwd() - opts.power_iters - 2;
  EXPECT_EQ(res.iterations, passes);
  EXPECT_LE(res.iterations, opts.max_iters);
  EXPECT_GT(res.restarts, 0u);
  EXPECT_LE(res.restarts, res.iterations);
}

TEST(LsmrTest, IterationCountScalesGently) {
  // Well-conditioned hierarchical systems converge in << n iterations
  // (the observation that justifies iterative inference, Sec. 7.6).
  const std::size_t n = 1024;
  auto m = MakeVStack({MakeTotalOp(n), MakeIdentityOp(n)});
  Rng rng(7);
  Vec y = m->Apply(RandomVec(n, &rng));
  LsmrResult res = Lsmr(*m, y);
  EXPECT_LT(res.iterations, 50u);
}

}  // namespace
}  // namespace ektelo
