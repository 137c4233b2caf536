// Tests for the protected kernel: Algorithm 2 budget semantics (sequential
// composition, stability scaling, parallel composition across partitions,
// atomic refusal), automatic sensitivity calibration, and the statistical
// behaviour of the measurement operators.  Kernels opened over a shared
// PreparedTable must match kernels built from a plain Table bitwise, read
// derived tables' own counts, and run concurrently over one prepared
// table.
#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "data/generators.h"
#include "data/table.h"
#include "gtest/gtest.h"
#include "kernel/handles.h"
#include "kernel/kernel.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/partition.h"
#include "plans/registry.h"
#include "util/thread_pool.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

Table UniformTable(std::size_t domain, std::size_t per_cell) {
  Table t(Schema({{"v", domain}}));
  for (std::size_t i = 0; i < domain; ++i)
    for (std::size_t c = 0; c < per_cell; ++c)
      t.AppendRow({static_cast<uint32_t>(i)});
  return t;
}

TEST(KernelTest, SequentialCompositionAddsBudget) {
  ProtectedKernel k(UniformTable(8, 2), 1.0, 1);
  auto x = k.TVectorize(k.root());
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(k.VectorLaplace(*x, *MakeIdentityOp(8), 0.3).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.3, 1e-12);
  ASSERT_TRUE(k.VectorLaplace(*x, *MakeIdentityOp(8), 0.4).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.7, 1e-12);
}

TEST(KernelTest, RefusesWhenBudgetExhausted) {
  ProtectedKernel k(UniformTable(4, 1), 0.5, 2);
  auto x = k.TVectorize(k.root());
  ASSERT_TRUE(k.VectorLaplace(*x, *MakeIdentityOp(4), 0.5).ok());
  auto denied = k.VectorLaplace(*x, *MakeIdentityOp(4), 0.1);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kBudgetExhausted);
  // Refusal is atomic: consumed budget unchanged.
  EXPECT_NEAR(k.BudgetConsumed(), 0.5, 1e-12);
}

TEST(KernelTest, ExactBudgetSpendIsAccepted) {
  // Spending eps_total in many pieces must not be rejected for FP error.
  ProtectedKernel k(UniformTable(4, 1), 1.0, 3);
  auto x = k.TVectorize(k.root());
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(k.VectorLaplace(*x, *MakeIdentityOp(4), 0.1).ok())
        << "piece " << i;
  EXPECT_FALSE(k.VectorLaplace(*x, *MakeIdentityOp(4), 0.01).ok());
}

TEST(KernelTest, StabilityScalesCharge) {
  // A 2-stable vector transform doubles the effective cost of downstream
  // measurements.
  ProtectedKernel k(UniformTable(4, 3), 1.0, 4);
  auto x = k.TVectorize(k.root());
  // M = 2x2 matrix [[1,1,0,0],[1,1,1,1]] has max L1 column norm 2.
  DenseMatrix m(2, 4);
  m.At(0, 0) = m.At(0, 1) = 1.0;
  m.At(1, 0) = m.At(1, 1) = m.At(1, 2) = m.At(1, 3) = 1.0;
  auto y = k.VTransform(*x, MakeDense(m));
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ(k.SourceStability(*y), 2.0);
  ASSERT_TRUE(k.VectorLaplace(*y, *MakeIdentityOp(2), 0.2).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.4, 1e-12);  // 2-stable x 0.2
}

TEST(KernelTest, GroupByIsTwoStable) {
  ProtectedKernel k(UniformTable(4, 3), 1.0, 5);
  auto g = k.TGroupBy(k.root(), {"v"});
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(k.NoisyCount(*g, 0.1).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.2, 1e-12);
}

TEST(KernelTest, ParallelCompositionChargesMax) {
  // Measuring every child of a partition at eps costs eps, not k*eps.
  ProtectedKernel k(UniformTable(8, 2), 1.0, 6);
  auto x = k.TVectorize(k.root());
  Partition p = Partition::FromIntervals({0, 4}, 8);  // two halves
  auto children = k.VSplitByPartition(*x, p);
  ASSERT_TRUE(children.ok());
  ASSERT_EQ(children->size(), 2u);
  ASSERT_TRUE(
      k.VectorLaplace((*children)[0], *MakeIdentityOp(4), 0.3).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.3, 1e-12);
  ASSERT_TRUE(
      k.VectorLaplace((*children)[1], *MakeIdentityOp(4), 0.3).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.3, 1e-12);  // max, not sum
  // A second round on child 0 pushes the max up.
  ASSERT_TRUE(
      k.VectorLaplace((*children)[0], *MakeIdentityOp(4), 0.2).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.5, 1e-12);
}

TEST(KernelTest, UnevenChildSpendingChargesMax) {
  ProtectedKernel k(UniformTable(9, 1), 1.0, 7);
  auto x = k.TVectorize(k.root());
  Partition p = Partition::FromIntervals({0, 3, 6}, 9);
  auto ch = k.VSplitByPartition(*x, p);
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(k.VectorLaplace((*ch)[0], *MakeIdentityOp(3), 0.1).ok());
  ASSERT_TRUE(k.VectorLaplace((*ch)[1], *MakeIdentityOp(3), 0.4).ok());
  ASSERT_TRUE(k.VectorLaplace((*ch)[2], *MakeIdentityOp(3), 0.2).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.4, 1e-12);
}

TEST(KernelTest, NestedSplitsComposeCorrectly) {
  ProtectedKernel k(UniformTable(8, 1), 1.0, 8);
  auto x = k.TVectorize(k.root());
  auto outer = k.VSplitByPartition(*x, Partition::FromIntervals({0, 4}, 8));
  ASSERT_TRUE(outer.ok());
  auto inner =
      k.VSplitByPartition((*outer)[0], Partition::FromIntervals({0, 2}, 4));
  ASSERT_TRUE(inner.ok());
  // eps on each inner child: max = 0.2 at outer child 0.
  ASSERT_TRUE(k.VectorLaplace((*inner)[0], *MakeIdentityOp(2), 0.2).ok());
  ASSERT_TRUE(k.VectorLaplace((*inner)[1], *MakeIdentityOp(2), 0.2).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.2, 1e-12);
  // eps on outer child 1: still parallel with child 0's subtree.
  ASSERT_TRUE(k.VectorLaplace((*outer)[1], *MakeIdentityOp(4), 0.15).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.2, 1e-12);
}

TEST(KernelTest, SplitChildrenHoldDisjointCells) {
  ProtectedKernel k(UniformTable(6, 1), 1.0, 9);
  auto x = k.TVectorize(k.root());
  Partition p({0, 1, 0, 1, 0, 1}, 2);
  auto ch = k.VSplitByPartition(*x, p);
  ASSERT_TRUE(ch.ok());
  EXPECT_EQ(k.VectorSize((*ch)[0]), 3u);
  EXPECT_EQ(k.VectorSize((*ch)[1]), 3u);
}

TEST(KernelTest, VectorLaplaceAutoSensitivity) {
  // Prefix has sensitivity n; the recorded noise scale must be n/eps.
  ProtectedKernel k(UniformTable(16, 1), 10.0, 10);
  auto x = k.TVectorize(k.root());
  ASSERT_TRUE(k.VectorLaplace(*x, *MakePrefixOp(16), 2.0).ok());
  ASSERT_EQ(k.transcript().size(), 1u);
  EXPECT_NEAR(k.transcript()[0].noise_scale, 16.0 / 2.0, 1e-12);
}

TEST(KernelTest, VectorLaplaceIsUnbiasedAndCalibrated) {
  // Identity measurements: empirical mean ~= truth, variance ~= 2(1/eps)^2.
  const double eps = 0.5;
  const std::size_t n = 16;
  const int trials = 3000;
  Vec mean(n, 0.0);
  double var_acc = 0.0;
  for (int t = 0; t < trials; ++t) {
    ProtectedKernel k(UniformTable(n, 5), 1.0, 1000 + t);
    auto x = k.TVectorize(k.root());
    auto y = k.VectorLaplace(*x, *MakeIdentityOp(n), eps);
    ASSERT_TRUE(y.ok());
    for (std::size_t i = 0; i < n; ++i) {
      mean[i] += (*y)[i];
      var_acc += ((*y)[i] - 5.0) * ((*y)[i] - 5.0);
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(mean[i] / trials, 5.0, 0.2);
  double var = var_acc / (trials * n);
  EXPECT_NEAR(var, 2.0 / (eps * eps), 0.5);
}

TEST(KernelTest, WhereThenMeasureChargesNormally) {
  // Where is 1-stable: filtering does not inflate cost (Algorithm 1's
  // pattern: Where -> Select -> Vectorize -> measure).
  Table t(Schema({{"sex", 2}, {"age", 10}, {"salary", 8}}));
  for (uint32_t i = 0; i < 40; ++i)
    t.AppendRow({i % 2, i % 10, i % 8});
  ProtectedKernel k(std::move(t), 1.0, 11);
  auto filtered = k.TWhere(
      k.root(), Predicate::True().And("sex", CmpOp::kEq, 1).And(
                    "age", CmpOp::kGe, 3));
  ASSERT_TRUE(filtered.ok());
  auto sel = k.TSelect(*filtered, {"salary"});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(k.SourceSchema(*sel).num_attrs(), 1u);
  auto x = k.TVectorize(*sel);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(k.VectorSize(*x), 8u);
  ASSERT_TRUE(k.VectorLaplace(*x, *MakeIdentityOp(8), 0.25).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.25, 1e-12);
}

TEST(KernelTest, ReduceByPartitionIsOneStable) {
  ProtectedKernel k(UniformTable(8, 1), 1.0, 12);
  auto x = k.TVectorize(k.root());
  auto r = k.VReduceByPartition(*x, Partition::FromIntervals({0, 4}, 8));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(k.VectorSize(*r), 2u);
  ASSERT_TRUE(k.VectorLaplace(*r, *MakeIdentityOp(2), 0.3).ok());
  EXPECT_NEAR(k.BudgetConsumed(), 0.3, 1e-12);
}

TEST(KernelTest, ReducedVectorSumsGroups) {
  // Measure the reduced vector with huge eps and check the group sums.
  ProtectedKernel k(UniformTable(6, 2), 1e7, 13);
  auto x = k.TVectorize(k.root());
  auto r = k.VReduceByPartition(*x, Partition({0, 0, 0, 1, 1, 1}, 2));
  auto y = k.VectorLaplace(*r, *MakeIdentityOp(2), 1e6);
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR((*y)[0], 6.0, 1e-3);
  EXPECT_NEAR((*y)[1], 6.0, 1e-3);
}

TEST(KernelTest, NoisyCountConcentratesAroundSize) {
  double acc = 0.0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    ProtectedKernel k(UniformTable(4, 25), 1.0, 2000 + t);
    auto y = k.NoisyCount(k.root(), 1.0);
    ASSERT_TRUE(y.ok());
    acc += *y;
  }
  EXPECT_NEAR(acc / trials, 100.0, 1.0);
}

TEST(KernelTest, WorstApproxFindsWorstQueryAtHighEps) {
  // x has a spike at cell 3; xhat is flat zero; the worst approximated
  // identity query is cell 3.
  Table t(Schema({{"v", 8}}));
  for (int i = 0; i < 50; ++i) t.AppendRow({3});
  ProtectedKernel k(std::move(t), 200.0, 14);
  auto x = k.TVectorize(k.root());
  Vec xhat(8, 0.0);
  auto pick = k.WorstApprox(*x, *MakeIdentityOp(8), xhat, 100.0);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 3u);
}

TEST(KernelTest, MeasureOnWrongSourceKindFails) {
  ProtectedKernel k(UniformTable(4, 1), 1.0, 15);
  auto denied = k.VectorLaplace(k.root(), *MakeIdentityOp(4), 0.1);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kInvalidArgument);
  auto x = k.TVectorize(k.root());
  EXPECT_FALSE(k.NoisyCount(*x, 0.1).ok());
}

TEST(KernelTest, ShapeMismatchRejected) {
  ProtectedKernel k(UniformTable(4, 1), 1.0, 16);
  auto x = k.TVectorize(k.root());
  EXPECT_FALSE(k.VectorLaplace(*x, *MakeIdentityOp(5), 0.1).ok());
  EXPECT_FALSE(
      k.VReduceByPartition(*x, Partition::Identity(5)).ok());
}

TEST(KernelTest, InvalidEpsRejectedWithoutCharge) {
  ProtectedKernel k(UniformTable(4, 1), 1.0, 17);
  auto x = k.TVectorize(k.root());
  EXPECT_FALSE(k.VectorLaplace(*x, *MakeIdentityOp(4), 0.0).ok());
  EXPECT_FALSE(k.VectorLaplace(*x, *MakeIdentityOp(4), -1.0).ok());
  EXPECT_DOUBLE_EQ(k.BudgetConsumed(), 0.0);
}

TEST(KernelTest, TranscriptRecordsOperations) {
  ProtectedKernel k(UniformTable(4, 1), 1.0, 18);
  auto x = k.TVectorize(k.root());
  ASSERT_TRUE(k.VectorLaplace(*x, *MakeIdentityOp(4), 0.5).ok());
  ASSERT_EQ(k.transcript().size(), 1u);
  EXPECT_EQ(k.transcript()[0].eps, 0.5);
  EXPECT_NE(k.transcript()[0].op.find("Identity"), std::string::npos);
}

// ---- Prepared tables ----

// An 8x8 grid over two attributes, one row per unit of count.
Table GridTable(const Vec& hist) {
  Table t(Schema({{"x", 8}, {"y", 8}}));
  for (std::size_t i = 0; i < hist.size(); ++i) {
    const long count = std::lround(hist[i]);
    for (long c = 0; c < count; ++c)
      t.AppendRow({uint32_t(i / 8), uint32_t(i % 8)});
  }
  return t;
}

struct PlanRun {
  Vec xhat;
  double budget = 0.0;
  std::vector<std::tuple<std::string, double, double>> transcript;
};

// Runs `plan` from the root of `kernel`; the transcript comes back
// order-normalized (parallel branches interleave entries).
PlanRun RunPlan(const Plan& plan, ProtectedKernel* kernel, std::size_t n,
                double total) {
  Rng rng(17);
  std::vector<std::size_t> dims;
  switch (plan.domain()) {
    case DomainKind::k1D:
      dims = {n};
      break;
    case DomainKind::k2D:
      dims = {8, 8};
      break;
    case DomainKind::kMultiDim:
      dims = {16, 2, 2};
      break;
  }
  const auto ranges = RandomRanges(20, n, 16, &rng);
  const auto w = RangeQueryOp(ranges, n);
  auto x = ProtectedTable::Root(kernel).Vectorize();
  EK_CHECK(x.ok());
  BudgetScope scope(kernel->eps_total());
  PlanInput in;
  in.dims = dims;
  in.ranges = ranges;
  in.workload = w;
  in.workload_factors = {w};
  in.known_total = total;
  in.rng = &rng;
  in.stripe_dim = 0;
  StatusOr<Vec> xhat = plan.Execute(*x, scope, in);
  EXPECT_TRUE(xhat.ok()) << xhat.status().ToString();
  PlanRun r;
  if (xhat.ok()) r.xhat = std::move(*xhat);
  r.budget = kernel->BudgetConsumed();
  for (const auto& e : kernel->transcript())
    r.transcript.emplace_back(e.op, e.eps, e.noise_scale);
  std::sort(r.transcript.begin(), r.transcript.end());
  return r;
}

TEST(PreparedTableTest, EveryPlanMatchesTheTableConstructorBitwise) {
  Rng rng(5);
  const Vec line = MakeHistogram1D(Shape1D::kStep, 64, 2000.0, &rng);
  const Vec grid = MakeHistogram2D(8, 8, 2000.0, &rng);
  const std::vector<std::pair<std::string, Table>> tables = {
      {"1D", TableFromHistogram(line, "v")}, {"2D", GridTable(grid)}};
  const double eps = 0.5;
  for (const auto& [label, table] : tables) {
    SCOPED_TRACE(label);
    // One prepared table serves every plan and thread count below.
    const auto prepared = PreparedTable::Make(table);
    const std::size_t n = table.schema().TotalDomainSize();
    const double total = double(table.NumRows());
    for (std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool::Global().Resize(threads);
      for (const Plan* plan : PlanRegistry::Global().Catalog()) {
        SCOPED_TRACE(plan->name());
        ProtectedKernel from_table(table, eps, 424242);
        ProtectedKernel from_prepared(prepared, eps, 424242);
        const PlanRun a = RunPlan(*plan, &from_table, n, total);
        const PlanRun b = RunPlan(*plan, &from_prepared, n, total);
        ASSERT_EQ(a.xhat.size(), b.xhat.size());
        for (std::size_t i = 0; i < a.xhat.size(); ++i)
          ASSERT_EQ(a.xhat[i], b.xhat[i]) << "component " << i;
        EXPECT_EQ(a.budget, b.budget);
        EXPECT_EQ(a.transcript, b.transcript);
      }
    }
  }
  ThreadPool::Global().Resize(ThreadPool::DefaultThreadCount());
}

// Near-exact read-out of a vector source: eps so large that the Laplace
// noise sits far below the count resolution.
Vec ReadOut(ProtectedKernel* k, SourceId x) {
  auto y = k->VectorLaplace(x, *MakeIdentityOp(k->VectorSize(x)), 1e9);
  EK_CHECK(y.ok());
  return *y;
}

void ExpectCounts(const Vec& got, const Vec& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-3) << "cell " << i;
}

TEST(PreparedTableTest, DerivedTablesVectorizeTheirOwnRows) {
  // The prepared counts belong to the root only: a Where, Select or
  // GroupBy result answering from them would release the wrong data.
  Table t(Schema({{"a", 3}, {"b", 4}}));
  for (uint32_t i = 0; i < 30; ++i) t.AppendRow({i % 3, (i * 7) % 4});
  const Predicate a_is_1 = Predicate::True().And("a", CmpOp::kEq, 1);
  const auto prepared = PreparedTable::Make(t);
  ProtectedKernel k(prepared, 1e12, 19);

  auto root = k.TVectorize(k.root());
  ASSERT_TRUE(root.ok());
  ExpectCounts(ReadOut(&k, *root), t.Vectorize());

  auto where = k.TWhere(k.root(), a_is_1);
  ASSERT_TRUE(where.ok());
  auto xw = k.TVectorize(*where);
  ASSERT_TRUE(xw.ok());
  ExpectCounts(ReadOut(&k, *xw), t.Where(a_is_1).Vectorize());

  auto sel = k.TSelect(k.root(), {"b"});
  ASSERT_TRUE(sel.ok());
  auto xs = k.TVectorize(*sel);
  ASSERT_TRUE(xs.ok());
  ExpectCounts(ReadOut(&k, *xs), t.Select({"b"}).Vectorize());

  auto sel_of_where = k.TSelect(*where, {"b"});
  ASSERT_TRUE(sel_of_where.ok());
  auto xsw = k.TVectorize(*sel_of_where);
  ASSERT_TRUE(xsw.ok());
  ExpectCounts(ReadOut(&k, *xsw), t.Where(a_is_1).Select({"b"}).Vectorize());

  auto grouped = k.TGroupBy(k.root(), {"a"});
  ASSERT_TRUE(grouped.ok());
  auto xg = k.TVectorize(*grouped);
  ASSERT_TRUE(xg.ok());
  ExpectCounts(ReadOut(&k, *xg), t.GroupBy({"a"}).Vectorize());
}

TEST(PreparedTableTest, KernelsShareOnePreparedTableAcrossThreads) {
  Rng rng(23);
  const Table t =
      TableFromHistogram(MakeHistogram1D(Shape1D::kZipf, 32, 500.0, &rng),
                         "v");
  const auto prepared = PreparedTable::Make(t);
  const Predicate low = Predicate::True().And("v", CmpOp::kLt, 16);
  // One execution: root vectorize + measure, and a derived source.
  auto run = [&](uint64_t seed) {
    ProtectedKernel k(prepared, 1.0, seed);
    auto x = k.TVectorize(k.root());
    EK_CHECK(x.ok());
    auto y = k.VectorLaplace(*x, *MakeIdentityOp(32), 0.5);
    EK_CHECK(y.ok());
    auto where = k.TWhere(k.root(), low);
    EK_CHECK(where.ok());
    auto count = k.NoisyCount(*where, 0.5);
    EK_CHECK(count.ok());
    y->push_back(*count);
    return std::move(*y);
  };
  constexpr int kRuns = 40;
  std::vector<Vec> serial;
  for (int i = 0; i < kRuns; ++i) serial.push_back(run(100 + i));

  std::vector<Vec> concurrent(kRuns);
  std::thread even([&] {
    for (int i = 0; i < kRuns; i += 2) concurrent[i] = run(100 + i);
  });
  std::thread odd([&] {
    for (int i = 1; i < kRuns; i += 2) concurrent[i] = run(100 + i);
  });
  even.join();
  odd.join();
  for (int i = 0; i < kRuns; ++i) EXPECT_EQ(concurrent[i], serial[i]);
}

}  // namespace
}  // namespace ektelo
