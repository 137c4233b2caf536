// Bitwise cross-target invariance of the SIMD kernel layer.
//
// The dispatch contract (linalg/simd/simd.h) says every compiled-in
// kernel table computes bitwise-identical results to the scalar table on
// every input.  This suite enforces it three ways:
//
//   1. Raw-kernel fuzz: randomized shapes, panel widths, sub-ranges,
//      misaligned interior pointers and ragged tails (sizes straddling
//      the 8-lane group and the 4-column dense unroll), comparing every
//      available target's output to scalar's byte for byte — including
//      that elements outside the kernel's assigned range are untouched.
//   2. Blocked entry points (DenseMatmat / CsrMatmat / Haar panels)
//      re-dispatched per target via SetActive, at several thread counts,
//      so target invariance and thread invariance are checked composed.
//   3. Registry-wide plan invariance: every registered plan produces the
//      same bits under every dispatch target (the CI scalar leg re-runs
//      the full tier-1 suite under EKTELO_SIMD=scalar for the same
//      property through the environment path).
//
// The integer crc32c entry is checked the same way: RFC 3720 known
// answers on every target, then every target equal to scalar on seeded
// buffers of every length up to 4,100 bytes at every offset 0-7.
//
// Also pins the allocator guarantees the kernels' callers rely on
// (64-byte alignment of AlignedVec-backed storage) and the EKTELO_SIMD
// selection logic itself.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "linalg/block.h"
#include "linalg/csr.h"
#include "linalg/dense.h"
#include "linalg/haar.h"
#include "linalg/simd/simd.h"
#include "plans/registry.h"
#include "util/aligned.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Random values with the awkward payloads the bitwise contract is about:
// mixed magnitudes, exact zeros and negative zeros.
double FuzzValue(Rng* rng) {
  const double u = rng->Uniform();
  if (u < 0.05) return 0.0;
  if (u < 0.10) return -0.0;
  if (u < 0.20) return rng->Normal() * 1e-8;
  if (u < 0.30) return rng->Normal() * 1e8;
  return rng->Normal();
}

std::vector<double> FuzzVec(std::size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = FuzzValue(rng);
  return v;
}

// Buffer with one leading slack element so kernels can be handed the
// deliberately 8-byte-misaligned interior pointer buf.data() + 1.
struct Misalignable {
  explicit Misalignable(std::vector<double> v) : buf(std::move(v)) {
    buf.insert(buf.begin(), 0.25);
  }
  const double* at(bool misalign) const { return buf.data() + (misalign ? 1 : 0); }
  std::vector<double> buf;
};

TEST(SimdKernelTest, ScalarTableAlwaysAvailableAndFirstIsBest) {
  const auto targets = simd::AvailableTargets();
  ASSERT_FALSE(targets.empty());
  EXPECT_NE(simd::FindTarget("scalar"), nullptr);
  // Best-first ordering: scalar is the last resort.
  EXPECT_STREQ(targets.back()->name, "scalar");
  for (const auto* t : targets) EXPECT_NE(simd::FindTarget(t->name), nullptr);
}

TEST(SimdKernelTest, EnvOverrideSelectsAndFallsBack) {
  setenv("EKTELO_SIMD", "scalar", 1);
  simd::ResetActive();
  EXPECT_STREQ(simd::Active().name, "scalar");
  // Unknown target: warns and falls back to the best available.
  setenv("EKTELO_SIMD", "vliw", 1);
  simd::ResetActive();
  EXPECT_STREQ(simd::Active().name, simd::AvailableTargets().front()->name);
  // Empty string behaves like unset (CI matrix legs pass "" for native).
  setenv("EKTELO_SIMD", "", 1);
  simd::ResetActive();
  EXPECT_STREQ(simd::Active().name, simd::AvailableTargets().front()->name);
  unsetenv("EKTELO_SIMD");
  simd::ResetActive();
  EXPECT_STREQ(simd::Active().name, simd::AvailableTargets().front()->name);
}

TEST(SimdKernelTest, AlignedAllocatorDelivers64ByteCachelinePaddedBuffers) {
  Rng rng(5);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{1000}}) {
    AlignedVec v(n, 1.0);
    EXPECT_TRUE(IsAligned64(v.data())) << n;
    DenseMatrix d(n, 3, 0.5);
    EXPECT_TRUE(IsAligned64(d.data().data())) << n;
    Block b(n, 2);
    EXPECT_TRUE(IsAligned64(b.data())) << n;
  }
  std::vector<Triplet> t{{0, 0, 1.0}, {1, 2, -2.0}, {3, 1, 0.5}};
  CsrMatrix c = CsrMatrix::FromTriplets(4, 3, t);
  EXPECT_TRUE(IsAligned64(c.values().data()));
}

TEST(SimdKernelTest, DenseMatmatRowsBitwiseEqualAcrossTargets) {
  const auto targets = simd::AvailableTargets();
  const simd::KernelTable* scalar = simd::FindTarget("scalar");
  ASSERT_NE(scalar, nullptr);
  Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    // Shapes straddle the 8-lane dot group and the 4-column unroll.
    const std::size_t m = std::size_t(rng.UniformInt(1, 17));
    const std::size_t n = std::size_t(rng.UniformInt(1, 29));
    const std::size_t k = std::size_t(rng.UniformInt(1, 11));
    const std::size_t i0 = std::size_t(rng.UniformInt(0, int64_t(m) - 1));
    const std::size_t i1 = std::size_t(rng.UniformInt(int64_t(i0), int64_t(m)));
    const bool mis = trial % 3 == 0;
    Misalignable a(FuzzVec(m * n, &rng));
    Misalignable x(FuzzVec(n * k, &rng));
    std::vector<double> y_ref(m * k, -777.25);
    scalar->dense_matmat_rows(a.at(mis), m, n, x.at(mis), y_ref.data(), k,
                              i0, i1);
    for (const auto* t : targets) {
      std::vector<double> y(m * k, -777.25);
      t->dense_matmat_rows(a.at(mis), m, n, x.at(mis), y.data(), k, i0, i1);
      // Bitwise equal inside [i0, i1), sentinel untouched outside.
      ASSERT_TRUE(SameBits(y_ref, y))
          << t->name << " trial " << trial << " m=" << m << " n=" << n
          << " k=" << k << " range=[" << i0 << "," << i1 << ")";
    }
  }
}

TEST(SimdKernelTest, DenseRmatMatColsBitwiseEqualAcrossTargets) {
  const auto targets = simd::AvailableTargets();
  const simd::KernelTable* scalar = simd::FindTarget("scalar");
  Rng rng(202);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = std::size_t(rng.UniformInt(1, 23));
    const std::size_t n = std::size_t(rng.UniformInt(1, 19));
    const std::size_t k = std::size_t(rng.UniformInt(1, 10));
    const std::size_t j0 = std::size_t(rng.UniformInt(0, int64_t(n) - 1));
    const std::size_t j1 = std::size_t(rng.UniformInt(int64_t(j0), int64_t(n)));
    const bool mis = trial % 3 == 1;
    Misalignable a(FuzzVec(m * n, &rng));
    Misalignable x(FuzzVec(m * k, &rng));
    std::vector<double> y_ref(n * k, -777.25);
    scalar->dense_rmatmat_cols(a.at(mis), m, n, x.at(mis), y_ref.data(), k,
                               j0, j1);
    for (const auto* t : targets) {
      std::vector<double> y(n * k, -777.25);
      t->dense_rmatmat_cols(a.at(mis), m, n, x.at(mis), y.data(), k, j0, j1);
      ASSERT_TRUE(SameBits(y_ref, y))
          << t->name << " trial " << trial << " m=" << m << " n=" << n
          << " k=" << k << " range=[" << j0 << "," << j1 << ")";
    }
  }
}

CsrMatrix RandomCsr(std::size_t m, std::size_t n, double density, Rng* rng) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng->Uniform() < density) t.push_back({i, j, FuzzValue(rng)});
  return CsrMatrix::FromTriplets(m, n, std::move(t));
}

TEST(SimdKernelTest, CsrKernelsBitwiseEqualAcrossTargets) {
  const auto targets = simd::AvailableTargets();
  const simd::KernelTable* scalar = simd::FindTarget("scalar");
  Rng rng(303);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = std::size_t(rng.UniformInt(1, 20));
    const std::size_t n = std::size_t(rng.UniformInt(1, 20));
    const std::size_t k = std::size_t(rng.UniformInt(1, 13));
    CsrMatrix c = RandomCsr(m, n, rng.Uniform(), &rng);
    const bool mis = trial % 3 == 2;
    Misalignable xf(FuzzVec(n * k, &rng));  // row-major n x k
    Misalignable xt(FuzzVec(m * k, &rng));  // row-major m x k
    // Forward sweep over output rows [i0, i1).
    const std::size_t i0 = std::size_t(rng.UniformInt(0, int64_t(m) - 1));
    const std::size_t i1 = std::size_t(rng.UniformInt(int64_t(i0), int64_t(m)));
    std::vector<double> yf_ref(m * k, 0.0);
    scalar->csr_matmat_rows(c.indptr().data(), c.indices().data(),
                            c.values().data(), xf.at(mis), yf_ref.data(), k,
                            i0, i1);
    // Transposed sweep over packed columns [c0, c1).
    const std::size_t c0 = std::size_t(rng.UniformInt(0, int64_t(k) - 1));
    const std::size_t c1 = std::size_t(rng.UniformInt(int64_t(c0), int64_t(k)));
    std::vector<double> yt_ref(n * k, 0.0);
    scalar->csr_rmatmat_cols(c.indptr().data(), c.indices().data(),
                             c.values().data(), m, xt.at(mis), yt_ref.data(),
                             k, c0, c1);
    for (const auto* t : targets) {
      std::vector<double> yf(m * k, 0.0), yt(n * k, 0.0);
      t->csr_matmat_rows(c.indptr().data(), c.indices().data(),
                         c.values().data(), xf.at(mis), yf.data(), k, i0, i1);
      t->csr_rmatmat_cols(c.indptr().data(), c.indices().data(),
                          c.values().data(), m, xt.at(mis), yt.data(), k, c0,
                          c1);
      ASSERT_TRUE(SameBits(yf_ref, yf)) << t->name << " fwd trial " << trial;
      ASSERT_TRUE(SameBits(yt_ref, yt)) << t->name << " T trial " << trial;
    }
  }
}

TEST(SimdKernelTest, HaarPanelsBitwiseEqualAcrossTargets) {
  const auto targets = simd::AvailableTargets();
  const simd::KernelTable* scalar = simd::FindTarget("scalar");
  Rng rng(404);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                        std::size_t{64}, std::size_t{256}}) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::size_t k = std::size_t(rng.UniformInt(1, 13));
      const bool mis = trial % 2 == 1;
      Misalignable x(FuzzVec(n * k, &rng));
      std::vector<double> ya_ref(n * k), ys_ref(n * k);
      scalar->haar_analysis_cols(x.at(mis), ya_ref.data(), n, k);
      scalar->haar_synthesis_cols(x.at(mis), ys_ref.data(), n, k);
      for (const auto* t : targets) {
        std::vector<double> ya(n * k), ys(n * k);
        t->haar_analysis_cols(x.at(mis), ya.data(), n, k);
        t->haar_synthesis_cols(x.at(mis), ys.data(), n, k);
        ASSERT_TRUE(SameBits(ya_ref, ya))
            << t->name << " analysis n=" << n << " k=" << k;
        ASSERT_TRUE(SameBits(ys_ref, ys))
            << t->name << " synthesis n=" << n << " k=" << k;
      }
    }
  }
}

// Bit-at-a-time CRC32C straight from the definition (reflected
// polynomial 0x82F63B78): the reference for the table-driven scalar loop.
uint32_t Crc32cBitwise(const uint8_t* p, std::size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k)
      c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(SimdKernelTest, Crc32cBitwiseEqualAcrossTargets) {
  const auto targets = simd::AvailableTargets();
  const simd::KernelTable* scalar = simd::FindTarget("scalar");
  ASSERT_NE(scalar, nullptr);

  // RFC 3720 (iSCSI), appendix B.4, plus the usual check value.
  const std::string check = "123456789";
  const std::vector<uint8_t> zeros(32, 0x00), ones(32, 0xFF);
  for (const auto* t : targets) {
    SCOPED_TRACE(t->name);
    EXPECT_EQ(t->crc32c(reinterpret_cast<const uint8_t*>(check.data()),
                        check.size()),
              0xE3069283u);
    EXPECT_EQ(t->crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(t->crc32c(ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(t->crc32c(nullptr, 0), 0u);
  }

  // Every length 0-4,100 at every offset 0-7, so both the 8-byte loops
  // and the byte tails run at every alignment.
  constexpr std::size_t kMaxLen = 4100, kOffsets = 8;
  Rng rng(606);
  std::vector<uint8_t> buf(kMaxLen + kOffsets);
  for (auto& b : buf) b = uint8_t(rng.UniformInt(0, 255));
  for (std::size_t len = 0; len <= kMaxLen; len += len < 300 ? 1 : 97)
    ASSERT_EQ(scalar->crc32c(buf.data(), len), Crc32cBitwise(buf.data(), len))
        << "len=" << len;
  for (std::size_t off = 0; off < kOffsets; ++off) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const uint32_t want = scalar->crc32c(buf.data() + off, len);
      for (const auto* t : targets)
        ASSERT_EQ(t->crc32c(buf.data() + off, len), want)
            << t->name << " off=" << off << " len=" << len;
    }
  }

  // One reply-sized buffer: 512 KiB, the large_domain estimate.
  std::vector<uint8_t> big(std::size_t{512} << 10);
  for (auto& b : big) b = uint8_t(rng.UniformInt(0, 255));
  const uint32_t want = scalar->crc32c(big.data(), big.size());
  for (const auto* t : targets)
    EXPECT_EQ(t->crc32c(big.data(), big.size()), want) << t->name;
}

// RAII dispatch override around the blocked entry points.
struct TargetGuard {
  explicit TargetGuard(const simd::KernelTable* t) { simd::SetActive(t); }
  ~TargetGuard() { simd::ResetActive(); }
};

TEST(SimdKernelTest, BlockedEntryPointsInvariantAcrossTargetsAndThreads) {
  const auto targets = simd::AvailableTargets();
  Rng rng(505);
  const std::size_t m = 37, n = 53, k = 9, hn = 128;
  DenseMatrix d(m, n);
  for (auto& v : d.data()) v = FuzzValue(&rng);
  CsrMatrix c = RandomCsr(m, n, 0.3, &rng);
  const std::vector<double> xf = FuzzVec(n * k, &rng);
  const std::vector<double> xt = FuzzVec(m * k, &rng);
  const std::vector<double> xh = FuzzVec(hn * k, &rng);

  // Reference: scalar table, serial pool.
  ThreadPool::Global().Resize(0);
  std::vector<double> r1(m * k), r2(n * k), r3(m * k), r4(n * k), r5(hn * k),
      r6(hn * k);
  {
    TargetGuard g(simd::FindTarget("scalar"));
    DenseMatmat(d, xf.data(), r1.data(), k);
    DenseRmatMat(d, xt.data(), r2.data(), k);
    CsrMatmat(c, xf.data(), r3.data(), k);
    CsrRmatMat(c, xt.data(), r4.data(), k);
    HaarAnalysisBlock(xh.data(), r5.data(), hn, k);
    HaarSynthesisBlock(xh.data(), r6.data(), hn, k);
  }
  for (const auto* t : targets) {
    for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(t->name) + " threads=" +
                   std::to_string(threads));
      ThreadPool::Global().Resize(threads);
      TargetGuard g(t);
      std::vector<double> y1(m * k), y2(n * k), y3(m * k), y4(n * k),
          y5(hn * k), y6(hn * k);
      DenseMatmat(d, xf.data(), y1.data(), k);
      DenseRmatMat(d, xt.data(), y2.data(), k);
      CsrMatmat(c, xf.data(), y3.data(), k);
      CsrRmatMat(c, xt.data(), y4.data(), k);
      HaarAnalysisBlock(xh.data(), y5.data(), hn, k);
      HaarSynthesisBlock(xh.data(), y6.data(), hn, k);
      EXPECT_TRUE(SameBits(r1, y1)) << "DenseMatmat";
      EXPECT_TRUE(SameBits(r2, y2)) << "DenseRmatMat";
      EXPECT_TRUE(SameBits(r3, y3)) << "CsrMatmat";
      EXPECT_TRUE(SameBits(r4, y4)) << "CsrRmatMat";
      EXPECT_TRUE(SameBits(r5, y5)) << "HaarAnalysisBlock";
      EXPECT_TRUE(SameBits(r6, y6)) << "HaarSynthesisBlock";
    }
  }
  ThreadPool::Global().Resize(ThreadPool::DefaultThreadCount());
}

// One end-to-end plan execution under a given dispatch target.
Vec RunPlanWithTarget(const Plan& plan, const simd::KernelTable* target) {
  TargetGuard g(target);
  const double eps = 0.5;
  Rng rng(17);
  Vec hist;
  std::vector<std::size_t> dims;
  switch (plan.domain()) {
    case DomainKind::k1D:
      dims = {64};
      hist = MakeHistogram1D(Shape1D::kStep, 64, 2000.0, &rng);
      break;
    case DomainKind::k2D:
      dims = {8, 8};
      hist = MakeHistogram2D(8, 8, 2000.0, &rng);
      break;
    case DomainKind::kMultiDim:
      dims = {16, 2, 2};
      hist = MakeHistogram1D(Shape1D::kStep, 64, 2000.0, &rng);
      break;
  }
  const std::size_t n = hist.size();
  auto ranges = RandomRanges(20, n, 16, &rng);
  auto w = RangeQueryOp(ranges, n);

  ProtectedKernel kernel(TableFromHistogram(hist, "v"), eps, 424242);
  ProtectedTable root = ProtectedTable::Root(&kernel);
  auto x = root.Vectorize();
  EK_CHECK(x.ok());
  BudgetScope scope(eps);
  Rng client_rng(99);
  PlanInput in;
  in.dims = dims;
  in.ranges = ranges;
  in.workload = w;
  in.workload_factors = {w};
  in.known_total = Sum(hist);
  in.rng = &client_rng;
  in.stripe_dim = 0;
  StatusOr<Vec> xhat = plan.Execute(*x, scope, in);
  EK_CHECK(xhat.ok());
  return *xhat;
}

TEST(SimdKernelTest, EveryRegisteredPlanIsBitwiseTargetInvariant) {
  const auto targets = simd::AvailableTargets();
  const std::vector<const Plan*> catalog = PlanRegistry::Global().Catalog();
  ASSERT_FALSE(catalog.empty());
  ThreadPool::Global().Resize(0);
  for (const Plan* plan : catalog) {
    SCOPED_TRACE(plan->name());
    const Vec ref = RunPlanWithTarget(*plan, simd::FindTarget("scalar"));
    for (const auto* t : targets) {
      SCOPED_TRACE(t->name);
      const Vec out = RunPlanWithTarget(*plan, t);
      ASSERT_EQ(out.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(out[i], ref[i]) << "component " << i;
    }
  }
  ThreadPool::Global().Resize(ThreadPool::DefaultThreadCount());
}

}  // namespace
}  // namespace ektelo
