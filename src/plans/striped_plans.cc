#include "plans/striped_plans.h"

#include <algorithm>
#include <utility>

#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/lsmr.h"
#include "ops/inference.h"
#include "ops/selection.h"
#include "plans/pipeline.h"
#include "plans/plans.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace ektelo {

namespace {

StatusOr<LinOpPtr> HbStrategy(const SelectInput& in) {
  return HbSelect(in.n());
}

Status CheckStripe(const std::vector<std::size_t>& dims,
                   std::size_t stripe_dim) {
  if (stripe_dim >= dims.size())
    return Status::InvalidArgument("stripe_dim out of range");
  return Status::Ok();
}

class HbStripedPlan final : public Plan {
 public:
  HbStripedPlan()
      : Plan("HB-Striped",
             PlanTraits{"PS TP[ SHB LM ] LS", DomainKind::kMultiDim,
                        false}) {}

  StatusOr<Vec> Execute(const ProtectedVector& x, BudgetScope& scope,
                        const PlanInput& in) const override {
    EK_ASSIGN_OR_RETURN(std::vector<std::size_t> dims, ResolveDims(x, in));
    EK_RETURN_IF_ERROR(CheckStripe(dims, in.stripe_dim));
    const std::size_t ns = dims[in.stripe_dim];
    const double eps = scope.remaining();
    Partition stripes = StripePartition(dims, in.stripe_dim);
    EK_ASSIGN_OR_RETURN(std::vector<ProtectedVector> children,
                        x.SplitByPartition(stripes));
    EK_ASSIGN_OR_RETURN(std::vector<BudgetScope> child_scopes,
                        scope.SplitParallel(children.size()));
    auto groups = stripes.Groups();

    // HB selection is data-independent: one strategy shared by all
    // stripes, and prepared once across executions.
    EK_ASSIGN_OR_RETURN(LinOpPtr hb, PrepareStrategy(name(), in.mode,
                                                     {.dims = {ns}},
                                                     HbStrategy));
    const double sens = hb->SensitivityL1();

    // Stripes are partition children under a SplitParallel scope:
    // disjoint sources, disjoint sub-scopes, disjoint output cells.  They
    // run concurrently through the pool; per-stripe noise comes from each
    // child's own lineage-seeded stream, so the result is
    // bitwise-identical to the serial stripe loop at any thread count.
    Vec xhat(x.size(), 0.0);
    EK_RETURN_IF_ERROR(ParallelBranches(
        children.size(), [&](std::size_t s) -> Status {
          // Full eps per stripe: parallel composition makes the kernel
          // (and scope) charge the max across stripes, not the sum.
          EK_ASSIGN_OR_RETURN(
              Vec y, children[s].Laplace(*hb, eps, child_scopes[s]));
          // Per-stripe LS (equivalent to the global solve: measurements
          // do not cross stripes).
          MeasurementSet mset;
          mset.Add(hb, std::move(y), sens / eps);
          Vec local = LeastSquaresInference(mset);
          const auto& cells = groups[s];
          EK_CHECK_EQ(local.size(), cells.size());
          for (std::size_t k = 0; k < cells.size(); ++k)
            xhat[cells[k]] = local[k];
          return Status::Ok();
        }));
    return xhat;
  }
};

class HbStripedKronPlan final : public Plan {
 public:
  explicit HbStripedKronPlan(bool materialize_full)
      : Plan(materialize_full ? "HB-Striped_kron_flat" : "HB-Striped_kron",
             PlanTraits{"SS LM LS", DomainKind::kMultiDim, false}),
        materialize_full_(materialize_full) {}

  StatusOr<Vec> Execute(const ProtectedVector& x, BudgetScope& scope,
                        const PlanInput& in) const override {
    EK_ASSIGN_OR_RETURN(std::vector<std::size_t> dims, ResolveDims(x, in));
    EK_RETURN_IF_ERROR(CheckStripe(dims, in.stripe_dim));
    // Convert the factors per mode but keep the Kronecker structure; the
    // "basic sparse" ablation flattens the whole product instead.
    std::vector<LinOpPtr> factors;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      if (d != in.stripe_dim) {
        factors.push_back(ApplyMode(MakeIdentityOp(dims[d]), in.mode));
        continue;
      }
      EK_ASSIGN_OR_RETURN(LinOpPtr hb, PrepareStrategy(name(), in.mode,
                                                       {.dims = {dims[d]}},
                                                       HbStrategy));
      factors.push_back(std::move(hb));
    }
    LinOpPtr m = MakeKronecker(std::move(factors));
    if (materialize_full_) m = MakeSparse(m->MaterializeSparse());
    const double sens = m->SensitivityL1();
    const double eps = scope.remaining();
    EK_ASSIGN_OR_RETURN(Vec y, x.Laplace(*m, eps, scope));
    MeasurementSet mset;
    mset.Add(m, std::move(y), sens / eps);
    return LeastSquaresInference(mset);
  }

 private:
  bool materialize_full_;
};

class DawaStripedPlan final : public Plan {
 public:
  explicit DawaStripedPlan(const DawaStripedOptions& opts)
      : Plan("DAWA-Striped",
             PlanTraits{"PS TP[ PD TR SG LM ] LS", DomainKind::kMultiDim,
                        false}),
        opts_(opts) {}

  StatusOr<Vec> Execute(const ProtectedVector& x, BudgetScope& scope,
                        const PlanInput& in) const override {
    EK_ASSIGN_OR_RETURN(std::vector<std::size_t> dims, ResolveDims(x, in));
    EK_RETURN_IF_ERROR(CheckStripe(dims, in.stripe_dim));
    const std::size_t ns = dims[in.stripe_dim];
    Partition stripes = StripePartition(dims, in.stripe_dim);
    EK_ASSIGN_OR_RETURN(std::vector<ProtectedVector> children,
                        x.SplitByPartition(stripes));
    EK_ASSIGN_OR_RETURN(std::vector<BudgetScope> child_scopes,
                        scope.SplitParallel(children.size()));
    auto groups = stripes.Groups();

    // The subplan workload: all prefix ranges along the stripe (the
    // income ranges the census workload asks for).
    std::vector<RangeQuery> stripe_workload;
    stripe_workload.reserve(ns);
    for (std::size_t i = 0; i < ns; ++i) stripe_workload.push_back({0, i});

    // Each stripe runs the whole data-adaptive DAWA pipeline — partition
    // selection, reduction, GreedyH, measurement, local LS — as an
    // independent branch: every kernel interaction stays inside the
    // stripe's own subtree (its partition child and sources derived from
    // it), so branches never share a noise stream and the concurrent run
    // reproduces the serial one bitwise.
    Vec xhat(x.size(), 0.0);
    EK_RETURN_IF_ERROR(ParallelBranches(
        children.size(), [&](std::size_t s) -> Status {
          // Parallel sub-scope: partition share, then measurement share.
          EK_ASSIGN_OR_RETURN(
              std::vector<BudgetScope> stages,
              child_scopes[s].Split(
                  {opts_.partition_frac, 1.0 - opts_.partition_frac}));
          const double eps1 = stages[0].remaining();
          const double eps2 = stages[1].remaining();
          // PD: data-adaptive partition of this stripe.
          EK_ASSIGN_OR_RETURN(
              Partition p,
              DawaPartitionSelect(children[s], eps1, stages[0], opts_.dawa));
          EK_ASSIGN_OR_RETURN(ProtectedVector reduced,
                              children[s].ReduceByPartition(p));
          auto reduced_workload =
              MapRangesToIntervalPartition(stripe_workload, p);
          LinOpPtr strategy = ApplyMode(
              GreedyHSelect(reduced_workload, p.num_groups()), in.mode);
          const double sens = strategy->SensitivityL1();
          EK_ASSIGN_OR_RETURN(Vec y,
                              reduced.Laplace(*strategy, eps2, stages[1]));
          MeasurementSet mset;
          mset.Add(MakeProduct(strategy, p.ReduceOp()), std::move(y),
                   sens / eps2);
          Vec local = LeastSquaresInference(mset);
          const auto& cells = groups[s];
          EK_CHECK_EQ(local.size(), cells.size());
          for (std::size_t k = 0; k < cells.size(); ++k)
            xhat[cells[k]] = local[k];
          return Status::Ok();
        }));
    return xhat;
  }

 private:
  DawaStripedOptions opts_;
};

}  // namespace

std::unique_ptr<Plan> MakeHbStripedPlan() {
  return std::make_unique<HbStripedPlan>();
}

std::unique_ptr<Plan> MakeHbStripedKronPlan(bool materialize_full) {
  return std::make_unique<HbStripedKronPlan>(materialize_full);
}

std::unique_ptr<Plan> MakeDawaStripedPlan(const DawaStripedOptions& opts) {
  return std::make_unique<DawaStripedPlan>(opts);
}

namespace plan_registration {

void RegisterStripedPlans(PlanRegistry& registry) {
  registry.MustRegister(MakeDawaStripedPlan({}));
  registry.MustRegister(MakeHbStripedPlan());
  registry.MustRegister(MakeHbStripedKronPlan(/*materialize_full=*/false));
}

}  // namespace plan_registration

}  // namespace ektelo
