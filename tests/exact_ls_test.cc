// Tests for the structured exact paths of LeastSquaresInference: the
// laminar tree solver and the Haar solver must land on the same point as
// a tightly converged LSMR (the minimum-norm least-squares solution) for
// every measurement shape the plans emit, anything else must fall back to
// LSMR, and the exact paths must be bitwise stable across the rewrite
// toggle and thread counts.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/lsmr.h"
#include "matrix/partition.h"
#include "matrix/range_ops.h"
#include "matrix/rewrite.h"
#include "obs/metrics.h"
#include "ops/hierarchy.h"
#include "ops/inference.h"
#include "ops/partition_select.h"
#include "ops/selection.h"
#include "plans/plans.h"
#include "plans/registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

uint64_t SolverCalls(const char* solver) {
  return obs::Registry::Global()
      .GetHistogram("ektelo_solver_seconds", "Wall time of one solver call",
                    std::string("solver=\"") + solver + "\"")
      .Count();
}

/// Arms timing for the test's lifetime so solver histograms count calls.
class ExactLsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_armed_ = obs::TimingEnabled();
    obs::SetTimingEnabled(true);
  }
  void TearDown() override {
    obs::SetTimingEnabled(was_armed_);
    SetRewriteEnabled(true);
    ThreadPool::Global().Resize(ThreadPool::DefaultThreadCount());
  }

 private:
  bool was_armed_ = false;
};

/// Adds a noisy measurement of `m` on `x` with a random noise scale
/// (`exact` gives noise scale 0: exact side information).
void AddMeasurement(MeasurementSet* mset, LinOpPtr m, const Vec& x, Rng* rng,
                    bool exact = false) {
  const double scale = exact ? 0.0 : rng->Uniform(0.5, 3.0);
  Vec y = m->Apply(x);
  if (!exact)
    for (double& v : y) v += rng->Laplace(scale);
  mset->Add(std::move(m), std::move(y), scale);
}

Vec RandomCounts(std::size_t n, Rng* rng) {
  Vec x(n);
  for (double& v : x) v = std::floor(rng->Uniform(0.0, 50.0));
  return x;
}

Vec RandomWeights(std::size_t rows, Rng* rng) {
  Vec w(rows);
  for (double& v : w) v = rng->Uniform(0.25, 2.0);
  return w;
}

/// The minimum-norm LS point, from LSMR run to full precision.
Vec TightLsmr(const MeasurementSet& mset) {
  LsmrOptions opts;
  opts.atol = 1e-14;
  opts.btol = 1e-14;
  opts.conlim = 1e14;
  opts.max_iters = 100000;
  return Lsmr(*mset.WeightedOp(), mset.WeightedY(), opts).x;
}

double MaxRelDiff(const Vec& got, const Vec& want) {
  EXPECT_EQ(got.size(), want.size());
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    diff = std::max(diff, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return diff / std::max(scale, 1e-300);
}

bool BitwiseEqual(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A 0/1 sparse operator from explicit row supports over n cells.
LinOpPtr SupportRows(const std::vector<std::vector<std::size_t>>& rows,
                     std::size_t n) {
  std::vector<Triplet> t;
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (std::size_t c : rows[r]) t.push_back({r, c, 1.0});
  return MakeSparse(CsrMatrix::FromTriplets(rows.size(), n, std::move(t)));
}

struct Shape {
  std::string name;
  MeasurementSet mset;
  const char* solver;  // "tree" or "haar"
};

std::vector<Shape> RecognizedShapes() {
  Rng rng(17);
  std::vector<Shape> shapes;
  auto add = [&](std::string name, const char* solver,
                 std::vector<LinOpPtr> ops, const Vec& x) {
    Shape s{std::move(name), {}, solver};
    for (LinOpPtr& m : ops) AddMeasurement(&s.mset, std::move(m), x, &rng);
    shapes.push_back(std::move(s));
  };

  for (std::size_t n : {std::size_t{13}, std::size_t{64}}) {
    const Vec x = RandomCounts(n, &rng);
    const std::string sz = "/n=" + std::to_string(n);
    add("H2" + sz, "tree", {H2Select(n)}, x);
    add("HB" + sz, "tree", {HbSelect(n)}, x);
    add("Greedy-H" + sz, "tree",
        {GreedyHSelect(RandomRanges(10, n, n / 2, &rng), n)}, x);
    // Per-row random weights on a b-ary hierarchy.
    LinOpPtr h3 = HierarchyOp(BuildHierarchy(n, 3));
    add("RowWeight(H3)" + sz, "tree",
        {MakeRowWeight(h3, RandomWeights(h3->rows(), &rng))}, x);
    // Duplicate sets: the same hierarchy measured twice at different
    // noise scales, plus a scaled copy of its total.
    add("duplicates" + sz, "tree",
        {H2Select(n), H2Select(n), MakeScaled(MakeTotalOp(n), 2.5)}, x);
  }

  {
    const std::size_t nx = 8, ny = 8, n = nx * ny;
    const Vec x = RandomCounts(n, &rng);
    add("QuadTree", "tree", {QuadtreeSelect(nx, ny)}, x);
    add("QuadTree 5x7", "tree", {QuadtreeSelect(5, 7)},
        RandomCounts(35, &rng));
    add("UniformGrid+total", "tree",
        {GridCellsSelect(nx, ny, 3, 3), MakeTotalOp(n)}, x);

    // AdaptiveGrid's three levels: total, a coarse grid, and a refinement
    // of some of the coarse blocks into sub-blocks (sparse rows).
    Partition blocks = GridPartition2D(nx, ny, 2, 2);
    std::vector<std::vector<std::size_t>> sub;
    auto groups = blocks.Groups();
    for (std::size_t b = 0; b < groups.size(); b += 2) {
      const auto& cells = groups[b];
      const std::size_t half = cells.size() / 2;
      sub.emplace_back(cells.begin(), cells.begin() + half);
      sub.emplace_back(cells.begin() + half, cells.end());
    }
    add("AdaptiveGrid levels", "tree",
        {MakeTotalOp(n), GridCellsSelect(nx, ny, 2, 2), SupportRows(sub, n)},
        x);
  }

  {
    const std::size_t ns = 8, rest = 4, n = ns * rest;
    const Vec x = RandomCounts(n, &rng);
    add("Kron(HB,I)", "tree",
        {MakeKronecker(HbSelect(ns), MakeIdentityOp(rest))}, x);
    add("Kron(I,HB)", "tree",
        {MakeKronecker(MakeIdentityOp(rest), HbSelect(ns))}, x);
    add("Scale(Kron(H2,I))", "tree",
        {MakeScaled(MakeKronecker(H2Select(ns), MakeIdentityOp(rest)), 0.5)},
        x);
    // Next to another measurement the Kronecker rows are expanded cell by
    // cell instead of split into independent copies.
    add("Kron(HB,I)+total", "tree",
        {MakeKronecker(HbSelect(ns), MakeIdentityOp(rest)), MakeTotalOp(n)},
        x);
    add("Kron(Total,H2)+Kron(I,I)", "tree",
        {MakeKronecker(MakeTotalOp(rest), H2Select(ns)),
         MakeKronecker(MakeIdentityOp(rest), MakeIdentityOp(ns))},
        x);
  }

  {
    // DAWA's measurement: weighted ranges over the groups of a partition,
    // composed with the reduction.  One interval partition and one
    // scattered partition, the latter behind a second reduction.
    const std::size_t n = 24;
    const Vec x = RandomCounts(n, &rng);
    Partition cuts = Partition::FromIntervals({0, 3, 4, 9, 15, 20}, n);
    LinOpPtr ranges = MakeRangeSetOp(
        {{0, 5}, {0, 2}, {3, 5}, {0, 0}, {1, 1}, {2, 2}, {4, 4}},
        cuts.num_groups());
    add("Product(RowWeight(RangeSet),partition)", "tree",
        {MakeProduct(MakeRowWeight(ranges, RandomWeights(7, &rng)),
                     cuts.ReduceOp())},
        x);
    std::vector<uint32_t> scatter(n);
    for (std::size_t c = 0; c < n; ++c) scatter[c] = uint32_t((c * 7) % 10);
    Partition fine(scatter, 10);
    Partition coarse = Partition::FromIntervals({0, 4, 7}, 10);
    add("Product(H2,Product(partition,partition))", "tree",
        {MakeProduct(H2Select(3),
                     MakeProduct(coarse.ReduceOp(), fine.ReduceOp()))},
        x);
    // AHP: identity on the groups.
    add("Product(Identity,partition)", "tree",
        {MakeProduct(MakeIdentityOp(10), fine.ReduceOp())}, x);
  }

  {
    // Incomplete nodes (children that do not cover their parent) and
    // cells no row covers.
    const std::size_t n = 20;
    const Vec x = RandomCounts(n, &rng);
    add("incomplete nodes", "tree",
        {MakeRangeSetOp({{0, 15}, {0, 3}, {8, 11}, {9, 9}, {16, 19}}, n)}, x);
    add("uncovered cells", "tree",
        {MakeRangeSetOp({{2, 5}, {2, 3}, {10, 12}}, n)}, x);
    Shape s{"exact side information", {}, "tree"};
    AddMeasurement(&s.mset, H2Select(n), x, &rng);
    AddMeasurement(&s.mset, MakeTotalOp(n), x, &rng, /*exact=*/true);
    AddMeasurement(&s.mset, MakeRangeSetOp({{0, 9}}, n), x, &rng,
                   /*exact=*/true);
    shapes.push_back(std::move(s));
  }

  for (std::size_t n : {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
    const Vec x = RandomCounts(n, &rng);
    const std::string sz = "/n=" + std::to_string(n);
    add("Privelet" + sz, "haar", {MakeWaveletOp(n)}, x);
    add("Privelet scaled" + sz, "haar",
        {MakeScaled(MakeRowWeight(MakeWaveletOp(n), RandomWeights(n, &rng)),
                    3.0)},
        x);
  }
  return shapes;
}

TEST_F(ExactLsTest, ExactPathsMatchTightLsmr) {
  for (const Shape& s : RecognizedShapes()) {
    SCOPED_TRACE(s.name);
    const uint64_t lsmr0 = SolverCalls("lsmr");
    const uint64_t exact0 = SolverCalls(s.solver);
    const Vec x = LeastSquaresInference(s.mset);
    EXPECT_EQ(SolverCalls("lsmr"), lsmr0) << "fell back to LSMR";
    EXPECT_EQ(SolverCalls(s.solver), exact0 + 1);
    EXPECT_LE(MaxRelDiff(x, TightLsmr(s.mset)), 1e-9);
  }
}

TEST_F(ExactLsTest, UnrecognizedShapesFallBackToLsmr) {
  Rng rng(3);
  const std::size_t n = 16;
  const Vec x = RandomCounts(n, &rng);
  std::vector<Shape> shapes(3);
  shapes[0].name = "overlapping ranges";
  AddMeasurement(&shapes[0].mset, MakeRangeSetOp({{0, 5}, {3, 8}}, n), x,
                 &rng);
  shapes[1].name = "row with unequal values";
  {
    std::vector<Triplet> t = {{0, 0, 1.0}, {0, 1, 2.0}, {1, 2, 1.0}};
    AddMeasurement(&shapes[1].mset,
                   MakeSparse(CsrMatrix::FromTriplets(2, n, std::move(t))), x,
                   &rng);
  }
  shapes[2].name = "Privelet plus a total row";
  AddMeasurement(&shapes[2].mset, MakeWaveletOp(n), x, &rng);
  AddMeasurement(&shapes[2].mset, MakeTotalOp(n), x, &rng);
  for (const Shape& s : shapes) {
    SCOPED_TRACE(s.name);
    const uint64_t lsmr0 = SolverCalls("lsmr");
    const uint64_t tree0 = SolverCalls("tree");
    const uint64_t haar0 = SolverCalls("haar");
    LeastSquaresInference(s.mset);
    EXPECT_EQ(SolverCalls("lsmr"), lsmr0 + 1);
    EXPECT_EQ(SolverCalls("tree"), tree0);
    EXPECT_EQ(SolverCalls("haar"), haar0);
  }
}

TEST_F(ExactLsTest, ExactPathIsBitwiseStableAcrossRewriteAndThreads) {
  for (const Shape& s : RecognizedShapes()) {
    SCOPED_TRACE(s.name);
    SetRewriteEnabled(false);
    ThreadPool::Global().Resize(0);
    const Vec ref = LeastSquaresInference(s.mset);
    SetRewriteEnabled(true);
    EXPECT_TRUE(BitwiseEqual(LeastSquaresInference(s.mset), ref)) << "rules";
    ThreadPool::Global().Resize(4);
    EXPECT_TRUE(BitwiseEqual(LeastSquaresInference(s.mset), ref))
        << "threads=4";
  }
}

TEST_F(ExactLsTest, PlansAreBitwiseStableAcrossRewriteAndThreads) {
  // End to end through the registry: every catalog plan reproduces its
  // reply across thread counts (and, on the exact paths, across the
  // rewrite toggle), and its inference takes the solver path this table
  // pins ("none" = the plan runs no solver).  A plan whose measurements
  // stop being laminar silently falls back to LSMR at many times the
  // cost; this table is what notices.
  struct Case {
    const char* plan;
    std::vector<std::size_t> dims;
    const char* solver;
    double rows = 2000.0;
  };
  const Case cases[] = {
      {"Identity", {64}, "none"},
      {"Privelet", {64}, "haar"},
      {"H2", {64}, "tree"},
      {"HB", {64}, "tree"},
      {"Greedy-H", {64}, "tree"},
      {"Uniform", {64}, "tree"},
      {"MWEM", {64}, "none"},
      {"AHP", {64}, "tree"},
      {"DAWA", {64}, "tree"},
      {"HDMM", {64}, "tree"},
      {"MWEM variant b", {64}, "none"},
      {"MWEM variant c", {64}, "nnls"},
      {"MWEM variant d", {64}, "nnls"},
      {"Workload", {64}, "lsmr"},
      {"WorkloadLS", {64}, "lsmr"},
      {"QuadTree", {8, 8}, "tree"},
      {"UniformGrid", {8, 8}, "tree"},
      {"AdaptiveGrid", {8, 8}, "tree"},
      // A level-1 grid side (6 here) that does not divide the domain:
      // level 2 must still refine inside the measured level-1 cells.
      {"AdaptiveGrid", {64, 64}, "tree", 5000.0},
      {"HB-Striped", {16, 2, 2}, "tree"},
      {"HB-Striped_kron", {16, 2, 2}, "tree"},
      {"DAWA-Striped", {16, 2, 2}, "tree"},
  };
  constexpr int kSolvers = 4;
  const char* const solvers[kSolvers] = {"tree", "haar", "lsmr", "nnls"};

  std::set<std::string> covered;
  for (const Case& c : cases) covered.insert(c.plan);
  for (const Plan* plan : PlanRegistry::Global().Catalog())
    EXPECT_EQ(covered.count(plan->name()), 1u)
        << plan->name() << " has no solver-path case";

  auto run = [](const Case& c) {
    std::size_t n = 1;
    for (std::size_t d : c.dims) n *= d;
    Rng rng(9);
    const Vec hist = c.dims.size() == 2
                         ? MakeHistogram2D(c.dims[0], c.dims[1], c.rows, &rng)
                         : MakeHistogram1D(Shape1D::kStep, n, c.rows, &rng);
    const auto ranges = RandomRanges(12, n, 16, &rng);
    const LinOpPtr w = RangeQueryOp(ranges, n);
    ProtectedKernel kernel(TableFromHistogram(hist, "v"), 1.0, 77);
    ProtectedTable root = ProtectedTable::Root(&kernel);
    auto x = root.Vectorize();
    EK_CHECK(x.ok());
    BudgetScope scope(1.0);
    Rng client_rng(7);
    PlanInput in;
    in.dims = c.dims;
    in.ranges = ranges;
    in.workload = w;
    in.workload_factors = {w};
    in.known_total = Sum(hist);
    in.rng = &client_rng;
    in.stripe_dim = 0;
    StatusOr<Vec> xhat = PlanRegistry::Global().MustFind(c.plan).Execute(
        *x, scope, in);
    EK_CHECK(xhat.ok());
    return *std::move(xhat);
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.plan) + " on " + std::to_string(c.dims[0]) +
                 "-wide dims");
    uint64_t before[kSolvers];
    for (int i = 0; i < kSolvers; ++i) before[i] = SolverCalls(solvers[i]);
    SetRewriteEnabled(false);
    ThreadPool::Global().Resize(0);
    const Vec off = run(c);
    SetRewriteEnabled(true);
    const Vec rules = run(c);
    ThreadPool::Global().Resize(4);
    EXPECT_TRUE(BitwiseEqual(run(c), rules)) << "threads=4";
    // Elsewhere rewriting may move the last bits (rewrite_equivalence_test
    // bounds that); the exact paths must not.
    const bool exact = std::strcmp(c.solver, "tree") == 0 ||
                       std::strcmp(c.solver, "haar") == 0;
    if (exact) {
      EXPECT_TRUE(BitwiseEqual(rules, off)) << "rules";
    }
    for (int i = 0; i < kSolvers; ++i) {
      const bool expected = std::strcmp(solvers[i], c.solver) == 0;
      const uint64_t calls = SolverCalls(solvers[i]) - before[i];
      EXPECT_EQ(calls > 0, expected)
          << solvers[i] << " ran " << calls << " times; expected "
          << c.solver;
    }
  }
}

}  // namespace
}  // namespace ektelo
