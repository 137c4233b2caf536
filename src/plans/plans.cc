#include "plans/plans.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/haar.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"
#include "ops/hdmm.h"
#include "ops/inference.h"
#include "ops/selection.h"
#include "plans/pipeline.h"
#include "util/check.h"

namespace ektelo {

namespace {

/// Select-measure-infer: the shared backbone of plans #1-#6, #13 and the
/// workload baselines, as a three-stage pipeline.
std::unique_ptr<Plan> SelectMeasureLsPlan(std::string name,
                                          std::string signature,
                                          bool mode_sweep, Stage select) {
  PlanTraits traits{std::move(signature), DomainKind::k1D, mode_sweep};
  return std::make_unique<PipelinePlan>(
      std::move(name), std::move(traits),
      std::vector<Stage>{std::move(select), Measure(),
                         Infer(InferKind::kLeastSquares)});
}

}  // namespace

std::unique_ptr<Plan> MakeIdentityPlan() {
  // Identity needs no inference: the noisy counts are the estimate.
  return std::make_unique<PipelinePlan>(
      "Identity", PlanTraits{"SI LM", DomainKind::k1D, true},
      std::vector<Stage>{
          SelectByShape([](const std::vector<std::size_t>& dims)
                            -> StatusOr<LinOpPtr> {
            return IdentitySelect(DimsProduct(dims).value());
          }),
          Measure(), Infer(InferKind::kNone)});
}

std::unique_ptr<Plan> MakeUniformPlan() {
  // ST LM LS: measure the total; min-norm LS spreads it uniformly.
  return SelectMeasureLsPlan(
      "Uniform", "ST LM LS", true,
      SelectByShape(
          [](const std::vector<std::size_t>& dims) -> StatusOr<LinOpPtr> {
            return TotalSelect(DimsProduct(dims).value());
          }));
}

std::unique_ptr<Plan> MakePriveletPlan() {
  // SP LM LS: per-dimension Haar wavelets composed by Kronecker.
  return SelectMeasureLsPlan(
      "Privelet", "SP LM LS", true,
      SelectByShape(
          [](const std::vector<std::size_t>& dims) -> StatusOr<LinOpPtr> {
            std::vector<LinOpPtr> factors;
            for (std::size_t d : dims) {
              if (!IsPowerOfTwo(d))
                return Status::InvalidArgument(
                    "Privelet requires power-of-two dimensions");
              factors.push_back(MakeWaveletOp(d));
            }
            return MakeKronecker(std::move(factors));
          }));
}

std::unique_ptr<Plan> MakeH2Plan() {
  return SelectMeasureLsPlan(
      "H2", "SH2 LM LS", true,
      SelectByShape(
          [](const std::vector<std::size_t>& dims) -> StatusOr<LinOpPtr> {
            return H2Select(DimsProduct(dims).value());
          }));
}

std::unique_ptr<Plan> MakeHbPlan() {
  return SelectMeasureLsPlan(
      "HB", "SHB LM LS", true,
      SelectByShape(
          [](const std::vector<std::size_t>& dims) -> StatusOr<LinOpPtr> {
            return HbSelect(DimsProduct(dims).value());
          }));
}

std::unique_ptr<Plan> MakeGreedyHPlan() {
  return SelectMeasureLsPlan(
      "Greedy-H", "SG LM LS", true,
      Select([](const SelectInput& in) -> StatusOr<LinOpPtr> {
        return GreedyHSelect(in.ranges, in.n());
      }));
}

std::unique_ptr<Plan> MakeHdmmPlan() {
  return SelectMeasureLsPlan(
      "HDMM", "SHD LM LS", false,
      Select([](const SelectInput& in) -> StatusOr<LinOpPtr> {
        if (in.workload_factors.size() != in.dims.size())
          return Status::InvalidArgument(
              "one workload factor per dimension");
        return HdmmSelect(in.workload_factors, in.dims);
      }));
}

std::unique_ptr<Plan> MakeWorkloadPlan(bool ls_inference) {
  // The two baselines share one pipeline; the raw-answer variant also
  // reports the minimum-norm LS reconstruction so callers get an xhat
  // (the Naive-Bayes "Workload" baseline reads marginals off it).
  return SelectMeasureLsPlan(
      ls_inference ? "WorkloadLS" : "Workload",
      ls_inference ? "SW LM LS" : "SW LM", false,
      Select([](const SelectInput& in) -> StatusOr<LinOpPtr> {
        if (in.workload) return in.workload;
        if (!in.ranges.empty()) return RangeQueryOp(in.ranges, in.n());
        return Status::InvalidArgument("Workload plan needs a workload");
      }));
}

// ------------------------------------------------------------------- AHP

std::unique_ptr<Plan> MakeAhpPlan(const AhpPlanOptions& opts) {
  // PA TR SI LM LS: AHP partition, reduce, identity on the groups, LS
  // min-norm expansion (uniform within groups), clamped at zero.
  return std::make_unique<PipelinePlan>(
      "AHP", PlanTraits{"PA TR SI LM LS", DomainKind::k1D, false},
      std::vector<Stage>{
          PartitionBy(
              [ahp = opts.ahp](StageContext& sc, double eps,
                               BudgetScope& scope) {
                return AhpPartitionSelect(*sc.data, eps, scope, ahp);
              },
              opts.partition_frac, /*remap_ranges=*/false),
          SelectByShape([](const std::vector<std::size_t>& dims)
                            -> StatusOr<LinOpPtr> {
            return IdentitySelect(DimsProduct(dims).value());
          }),
          Measure(), Infer(InferKind::kClampedLeastSquares)});
}

// ------------------------------------------------------------------ DAWA

std::vector<RangeQuery> MapRangesToIntervalPartition(
    const std::vector<RangeQuery>& ranges, const Partition& p) {
  std::vector<RangeQuery> out;
  out.reserve(ranges.size());
  for (const auto& r : ranges) {
    const std::size_t glo = p.group_of(r.lo);
    const std::size_t ghi = p.group_of(r.hi);
    EK_CHECK_LE(glo, ghi);
    out.push_back({glo, ghi});
  }
  return out;
}

std::unique_ptr<Plan> MakeDawaPlan(const DawaPlanOptions& opts) {
  // PD TR SG LM LS: DAWA stage-1 partition, reduce, Greedy-H on the
  // remapped workload, LS (volume-aware when public cell volumes exist).
  return std::make_unique<PipelinePlan>(
      "DAWA", PlanTraits{"PD TR SG LM LS", DomainKind::k1D, false},
      std::vector<Stage>{
          PartitionBy(
              [dawa = opts.dawa](StageContext& sc, double eps,
                                 BudgetScope& scope) {
                if (!dawa.cell_volumes.empty())
                  sc.cell_volumes = dawa.cell_volumes;
                return DawaPartitionSelect(*sc.data, eps, scope, dawa);
              },
              opts.partition_frac, /*remap_ranges=*/true),
          Select([](const SelectInput& in) -> StatusOr<LinOpPtr> {
            return GreedyHSelect(in.ranges, in.n());
          }),
          Measure(), Infer(InferKind::kLeastSquares)});
}

// ------------------------------------------------------------------ MWEM

namespace {

/// Variant b/d query-selection augmentation: tile the domain outside the
/// selected range with disjoint intervals of length 2^(round-1) — free to
/// measure alongside q under parallel composition (sensitivity stays 1).
std::vector<RangeQuery> AugmentDisjoint(const RangeQuery& q, std::size_t n,
                                        std::size_t round) {
  std::vector<RangeQuery> extra;
  const std::size_t len = std::min<std::size_t>(
      std::size_t{1} << std::min<std::size_t>(round - 1, 30), n);
  auto tile = [&](std::size_t lo, std::size_t hi_excl) {
    for (std::size_t p = lo; p < hi_excl; p += len)
      extra.push_back({p, std::min(p + len, hi_excl) - 1});
  };
  if (q.lo > 0) tile(0, q.lo);
  if (q.hi + 1 < n) tile(q.hi + 1, n);
  return extra;
}

/// The four MWEM variants as one parameterized loop plan (#7, #18-#20):
/// round = exponential-mechanism selection, Laplace measurement
/// (optionally augmented with disjoint hierarchical queries), then either
/// multiplicative weights or warm-started NNLS inference.
class MwemLoopPlan final : public Plan {
 public:
  explicit MwemLoopPlan(const MwemOptions& opts)
      : Plan(NameFor(opts),
             PlanTraits{SignatureFor(opts), DomainKind::k1D, false}),
        opts_(opts) {}

  StatusOr<Vec> Execute(const ProtectedVector& x, BudgetScope& scope,
                        const PlanInput& in) const override {
    EK_RETURN_IF_ERROR(ResolveDims(x, in).status());
    const std::size_t n = x.size();
    if (opts_.rounds == 0)
      return Status::InvalidArgument("rounds must be > 0");
    const double total =
        in.known_total > 0.0 ? in.known_total : opts_.known_total;
    // A non-finite total would spend the whole budget on estimates that
    // are all inf or NaN; refuse it before any measurement.
    if (!std::isfinite(total) || total <= 0.0)
      return Status::InvalidArgument(
          "MWEM requires a positive, finite known total");
    if (in.ranges.empty())
      return Status::InvalidArgument("MWEM needs a range workload");
    LinOpPtr w_op = ApplyMode(RangeQueryOp(in.ranges, n), in.mode);

    const double eps = scope.remaining();
    const double eps_round = eps / double(opts_.rounds);
    const double eps_select = eps_round / 2.0;
    const double eps_measure = eps_round / 2.0;

    Vec xhat(n, total / double(n));
    MeasurementSet mset;
    // Variant c/d inference state: the measurement union maintained as
    // ONE RangeSetOp (all rounds share a noise scale, so the merged
    // operator is exactly the stacked system).  NNLS gram applies then
    // cost one prefix-sum pass instead of one per round — the same
    // canonical form the rewrite engine derives for the MW variants, but
    // applied at plan level so the rewrite-off path shares it: projected-
    // gradient inference selects among non-unique minimizers in a
    // representation-sensitive way, so both A/B paths must hand the
    // solver bitwise-identical operators (see NnlsInference).
    std::vector<Interval> measured;
    Vec measured_y;
    for (std::size_t round = 1; round <= opts_.rounds; ++round) {
      EK_ASSIGN_OR_RETURN(
          std::size_t pick, x.WorstApprox(*w_op, xhat, eps_select, scope));
      std::vector<RangeQuery> to_measure = {in.ranges[pick]};
      if (opts_.augment_h2) {
        auto extra = AugmentDisjoint(in.ranges[pick], n, round);
        to_measure.insert(to_measure.end(), extra.begin(), extra.end());
      }
      LinOpPtr m = ApplyMode(RangeQueryOp(to_measure, n), in.mode);
      // Disjoint ranges: sensitivity 1 whether or not we augmented.
      EK_ASSIGN_OR_RETURN(Vec y, x.Laplace(*m, eps_measure, scope));

      if (opts_.nnls_inference) {
        for (const auto& q : to_measure) measured.push_back({q.lo, q.hi});
        measured_y.insert(measured_y.end(), y.begin(), y.end());
        MeasurementSet merged;
        merged.Add(ApplyMode(MakeRangeSetOp(measured, n), in.mode),
                   measured_y, 1.0 / eps_measure);
        // Warm-start from the previous round's estimate: faster and keeps
        // the uniform prior in yet-unmeasured directions, like MW.
        xhat = NnlsInference(merged, total, {.max_iters = 300, .x0 = xhat});
      } else {
        mset.Add(m, std::move(y), 1.0 / eps_measure);
        xhat = MultWeightsStep(mset, std::move(xhat),
                               {.iterations = opts_.mw_iterations});
      }
    }
    return xhat;
  }

 private:
  static std::string NameFor(const MwemOptions& o) {
    if (o.augment_h2 && o.nnls_inference) return "MWEM variant d";
    if (o.augment_h2) return "MWEM variant b";
    if (o.nnls_inference) return "MWEM variant c";
    return "MWEM";
  }
  static std::string SignatureFor(const MwemOptions& o) {
    if (o.augment_h2 && o.nnls_inference) return "I:( SW SH2 LM NLS )";
    if (o.augment_h2) return "I:( SW SH2 LM MW )";
    if (o.nnls_inference) return "I:( SW LM NLS )";
    return "I:( SW LM MW )";
  }

  MwemOptions opts_;
};

}  // namespace

std::unique_ptr<Plan> MakeMwemPlan(const MwemOptions& opts) {
  return std::make_unique<MwemLoopPlan>(opts);
}

// ------------------------------------------------------ registration

namespace plan_registration {

void RegisterCatalogPlans(PlanRegistry& registry) {
  registry.MustRegister(MakeIdentityPlan());
  registry.MustRegister(MakePriveletPlan());
  registry.MustRegister(MakeH2Plan());
  registry.MustRegister(MakeHbPlan());
  registry.MustRegister(MakeGreedyHPlan());
  registry.MustRegister(MakeUniformPlan());
  registry.MustRegister(MakeMwemPlan({}));
  registry.MustRegister(MakeAhpPlan({}));
  registry.MustRegister(MakeDawaPlan({}));
  registry.MustRegister(MakeHdmmPlan());
  registry.MustRegister(MakeMwemPlan({.augment_h2 = true}));
  registry.MustRegister(MakeMwemPlan({.nnls_inference = true}));
  registry.MustRegister(
      MakeMwemPlan({.augment_h2 = true, .nnls_inference = true}));
  registry.MustRegister(MakeWorkloadPlan(/*ls_inference=*/false));
  registry.MustRegister(MakeWorkloadPlan(/*ls_inference=*/true));
}

}  // namespace plan_registration

}  // namespace ektelo
