// Prepared strategies (plans/pipeline.h): selection reads public inputs
// only, so in the materializing modes a plan's strategy is prepared once
// per public key and reused by every later execution with that key.
//
// The data-independence guard runs every registry PipelinePlan in sparse
// mode on two different tables.  A plan with no partition stage must
// prepare bitwise the same strategy from each table, and a repeat must
// reuse the prepared instance; the partition plans (AHP, DAWA) select on
// a data-dependent reduced domain and must never consult the memo.
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "kernel/kernel.h"
#include "matrix/implicit_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/selection.h"
#include "plans/pipeline.h"
#include "plans/registry.h"
#include "util/rng.h"
#include "workload/workloads.h"

namespace ektelo {
namespace {

constexpr std::size_t kN = 32;     // 1D domain
constexpr std::size_t kSide = 8;   // 2D domain kSide x kSide
constexpr double kEps = 0.5;

/// The public inputs one plan runs with, built once so the workload
/// operators keep one identity across executions.
PlanInput InputFor(const Plan& plan) {
  Rng rng(3);
  PlanInput in;
  in.mode = MatrixMode::kSparse;
  if (plan.domain() == DomainKind::k2D) {
    in.dims = {kSide, kSide};
    return in;
  }
  in.dims = {kN};
  in.ranges = RandomRanges(10, kN, 8, &rng);
  in.workload = RangeQueryOp(in.ranges, kN);
  in.workload_factors = {in.workload};
  in.known_total = 1000.0;
  return in;
}

/// Two different tables over the same public domain.
Vec Table(const PlanInput& in, int which) {
  Rng rng(which == 0 ? 101 : 202);
  const double scale = which == 0 ? 1000.0 : 50000.0;
  if (in.dims.size() == 2)
    return MakeHistogram2D(in.dims[0], in.dims[1], scale, &rng);
  return MakeHistogram1D(which == 0 ? Shape1D::kStep : Shape1D::kGaussianMix,
                         in.n(), scale, &rng);
}

/// What one execution's plan.select spans said about the memo: "hit",
/// "miss", or "" when no span carried the attribute.
std::string Execute(const Plan& plan, const PlanInput& in, int table) {
  ProtectedKernel kernel(TableFromHistogram(Table(in, table), "v"), kEps,
                         /*seed=*/7 + table);
  ProtectedVector x(&kernel, kernel.TVectorize(kernel.root()).value());
  BudgetScope scope(kEps);
  obs::RequestTrace trace;
  {
    obs::ScopedTraceContext ctx(&trace);
    EXPECT_TRUE(plan.Execute(x, scope, in).ok()) << plan.name();
  }
  std::string prepared;
  for (const obs::TraceEvent& ev : trace.Events())
    for (uint8_t i = 0; i < ev.n_attrs; ++i)
      if (std::strcmp(ev.name, "plan.select") == 0 &&
          std::strcmp(ev.attrs[i].key, "prepared") == 0)
        prepared = ev.attrs[i].str;
  return prepared;
}

/// The strategy prepared for `plan` under the Select stage's key, or null
/// when none is: a selector that always fails only answers on a hit.
LinOpPtr Prepared(const Plan& plan, const PlanInput& in) {
  StatusOr<LinOpPtr> op = PrepareStrategy(
      plan.name(), in.mode,
      {in.dims, in.ranges, in.workload, in.workload_factors},
      [](const SelectInput&) -> StatusOr<LinOpPtr> {
        return Status::NotFound("not prepared");
      });
  return op.ok() ? *op : nullptr;
}

bool BitwiseSame(const LinOp& a, const LinOp& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         BitwiseEq(a.MaterializeDense().data(), b.MaterializeDense().data());
}

class PreparedStrategyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_traced_ = obs::TraceEnabled();
    obs::SetTraceEnabled(true);
    ClearPreparedStrategies();
  }
  void TearDown() override {
    obs::SetTraceEnabled(was_traced_);
    ClearPreparedStrategies();
  }

 private:
  bool was_traced_ = false;
};

TEST_F(PreparedStrategyTest, SelectionIsAFunctionOfPublicInputsOnly) {
  std::size_t checked = 0;
  for (const Plan* plan : PlanRegistry::Global().Catalog()) {
    if (dynamic_cast<const PipelinePlan*>(plan) == nullptr) continue;
    SCOPED_TRACE(plan->name());
    const PlanInput in = InputFor(*plan);
    // A partition stage (PA/PD in the signature) comes before Select.
    const bool partitions = plan->signature().rfind("P", 0) == 0;
    if (partitions) {
      EXPECT_EQ(Execute(*plan, in, 0), "");
      EXPECT_EQ(Execute(*plan, in, 1), "");
      EXPECT_EQ(Prepared(*plan, in), nullptr);
      ++checked;
      continue;
    }
    // Prepared from table 0, then, from cold, from table 1: the two
    // strategies must be the same matrix.
    ClearPreparedStrategies();
    ASSERT_EQ(Execute(*plan, in, 0), "miss");
    const LinOpPtr from0 = Prepared(*plan, in);
    ASSERT_NE(from0, nullptr);
    ClearPreparedStrategies();
    ASSERT_EQ(Execute(*plan, in, 1), "miss");
    const LinOpPtr from1 = Prepared(*plan, in);
    ASSERT_NE(from1, nullptr);
    EXPECT_NE(from0.get(), from1.get());
    EXPECT_TRUE(BitwiseSame(*from0, *from1));
    // A repeat on the other table reuses the prepared instance.
    EXPECT_EQ(Execute(*plan, in, 0), "hit");
    EXPECT_EQ(Prepared(*plan, in).get(), from1.get());
    ++checked;
  }
  // Identity, Privelet, H2, HB, Greedy-H, Uniform, AHP, DAWA, HDMM, the
  // two workload baselines and QuadTree.
  EXPECT_GE(checked, 12u);
}

TEST_F(PreparedStrategyTest, ImplicitModePreparesNothing) {
  const Plan& h2 = PlanRegistry::Global().MustFind("H2");
  PlanInput in = InputFor(h2);
  in.mode = MatrixMode::kImplicit;
  EXPECT_EQ(Execute(h2, in, 0), "");
  in.mode = MatrixMode::kSparse;
  EXPECT_EQ(Prepared(h2, in), nullptr);
}

TEST_F(PreparedStrategyTest, KeyIsExactOverPublicFields) {
  const Plan& h2 = PlanRegistry::Global().MustFind("H2");
  const PlanInput in = InputFor(h2);
  ASSERT_EQ(Execute(h2, in, 0), "miss");
  // Each public field is part of the key: change one and the strategy is
  // prepared afresh.
  PlanInput dense = in;
  dense.mode = MatrixMode::kDense;
  EXPECT_EQ(Execute(h2, dense, 0), "miss");
  PlanInput other_ranges = in;
  other_ranges.ranges.pop_back();
  EXPECT_EQ(Execute(h2, other_ranges, 0), "miss");
  PlanInput other_workload = in;
  other_workload.workload = RangeQueryOp(in.ranges, kN);  // equal, not same
  EXPECT_EQ(Execute(h2, other_workload, 0), "miss");
  // The original key is still prepared.
  EXPECT_EQ(Execute(h2, in, 1), "hit");
}

TEST_F(PreparedStrategyTest, MemoIsBounded) {
  // Prepare many distinct keys; the first one is evicted, LRU-first.
  const SelectFn identity = [](const SelectInput& in) -> StatusOr<LinOpPtr> {
    return MakeIdentityOp(in.n());
  };
  bool hit = true;
  ASSERT_TRUE(PrepareStrategy("bounded", MatrixMode::kSparse, {.dims = {1}},
                              identity, &hit)
                  .ok());
  EXPECT_FALSE(hit);
  for (std::size_t n = 2; n <= 200; ++n)
    ASSERT_TRUE(PrepareStrategy("bounded", MatrixMode::kSparse,
                                {.dims = {n}}, identity)
                    .ok());
  ASSERT_TRUE(PrepareStrategy("bounded", MatrixMode::kSparse, {.dims = {200}},
                              identity, &hit)
                  .ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(PrepareStrategy("bounded", MatrixMode::kSparse, {.dims = {1}},
                              identity, &hit)
                  .ok());
  EXPECT_FALSE(hit);
}

TEST_F(PreparedStrategyTest, ConcurrentPreparationsShareOneInstance) {
  // Racing preparations of one key materialize outside the lock; the one
  // that lands first is the instance every caller gets and measures.
  const SelectFn h2 = [](const SelectInput& in) -> StatusOr<LinOpPtr> {
    return H2Select(in.n());
  };
  std::vector<LinOpPtr> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&got, &h2, t] {
      got[t] = PrepareStrategy("race", MatrixMode::kSparse, {.dims = {256}},
                               h2)
                   .value();
    });
  for (std::thread& th : threads) th.join();
  for (const LinOpPtr& op : got) EXPECT_EQ(op.get(), got[0].get());
}

TEST_F(PreparedStrategyTest, StripedPlansShareOnePreparedHbStrategy) {
  for (const char* name : {"HB-Striped", "HB-Striped_kron"}) {
    SCOPED_TRACE(name);
    const Plan& plan = PlanRegistry::Global().MustFind(name);
    PlanInput in;
    in.dims = {16, 2, 2};
    in.mode = MatrixMode::kSparse;
    // The HB strategy is keyed on the stripe length alone.
    PlanInput key;
    key.dims = {16};
    key.mode = MatrixMode::kSparse;
    Execute(plan, in, 0);
    const LinOpPtr first = Prepared(plan, key);
    ASSERT_NE(first, nullptr);
    Execute(plan, in, 1);
    EXPECT_EQ(Prepared(plan, key).get(), first.get());
  }
}

}  // namespace
}  // namespace ektelo
