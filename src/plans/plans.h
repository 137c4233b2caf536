// The Fig. 2 plan catalog (1D / flattened-domain plans).
//
// Plan signatures (operators color-coded in the paper):
//   #1  Identity        SI LM
//   #2  Privelet        SP LM LS
//   #3  H2              SH2 LM LS
//   #4  HB              SHB LM LS
//   #5  Greedy-H        SG LM LS
//   #6  Uniform         ST LM LS
//   #7  MWEM            I:( SW LM MW )
//   #8  AHP             PA TR SI LM LS
//   #9  DAWA            PD TR SG LM LS
//   #13 HDMM            SHD LM LS
//   #18 MWEM variant b  I:( SW SH2 LM MW )
//   #19 MWEM variant c  I:( SW LM NLS )
//   #20 MWEM variant d  I:( SW SH2 LM NLS )
// plus the Workload / WorkloadLS baselines of the Naive-Bayes case study.
//
// Every plan is a registered `Plan` (see plans/registry.h): the single-shot
// plans are declarative pipelines (PartitionBy / Select / Measure / Infer,
// see plans/pipeline.h) and the four MWEM variants are one parameterized
// loop plan.  `Make*Plan` builds an instance with explicit options; the
// default-option instances live in PlanRegistry::Global() under their
// catalog names ("Identity", "DAWA", "MWEM variant b", ...); run one with
// `PlanRegistry::Global().Find(name)->Execute(x, scope, input)`, or call
// `Execute` on a `Make*Plan` instance when the options differ.
#ifndef EKTELO_PLANS_PLANS_H_
#define EKTELO_PLANS_PLANS_H_

#include <memory>
#include <vector>

#include "ops/partition_select.h"
#include "plans/plan.h"
#include "plans/registry.h"
#include "workload/workloads.h"

namespace ektelo {

// ------------------------------------------------------- plan factories

std::unique_ptr<Plan> MakeIdentityPlan();
std::unique_ptr<Plan> MakeUniformPlan();
std::unique_ptr<Plan> MakePriveletPlan();
std::unique_ptr<Plan> MakeH2Plan();
std::unique_ptr<Plan> MakeHbPlan();
/// Workload comes from PlanInput::ranges.
std::unique_ptr<Plan> MakeGreedyHPlan();
/// Workload factors come from PlanInput::workload_factors.
std::unique_ptr<Plan> MakeHdmmPlan();
/// Measures PlanInput::workload (or RangeQueryOp of PlanInput::ranges)
/// directly with Vector Laplace, then runs least squares ("WorkloadLS") or
/// returns the minimum-norm reconstruction of the raw noisy answers
/// ("Workload").
std::unique_ptr<Plan> MakeWorkloadPlan(bool ls_inference);

struct MwemOptions {
  std::size_t rounds = 10;
  /// Variant b/d: augment each round's selected query with a growing set
  /// of disjoint hierarchical queries (free under parallel composition).
  bool augment_h2 = false;
  /// Variant c/d: replace multiplicative-weights inference with NNLS plus
  /// the (assumed known) total.
  bool nnls_inference = false;
  /// The record total MWEM assumes known (PlanInput::known_total wins
  /// when positive).
  double known_total = 0.0;
  std::size_t mw_iterations = 40;
};

/// The four MWEM variants are this one loop plan: flags pick the
/// selection augmentation and the inference operator, per the paper's
/// claim that variants differ only in which operators are swapped.
std::unique_ptr<Plan> MakeMwemPlan(const MwemOptions& opts = {});

struct AhpPlanOptions {
  double partition_frac = 0.5;  // eps share for AHPpartition
  AhpOptions ahp;
};
std::unique_ptr<Plan> MakeAhpPlan(const AhpPlanOptions& opts = {});

struct DawaPlanOptions {
  double partition_frac = 0.25;  // DAWA's rho
  DawaOptions dawa;
};
std::unique_ptr<Plan> MakeDawaPlan(const DawaPlanOptions& opts = {});

/// Map 1D ranges through an interval partition (groups must be contiguous
/// intervals, as produced by DawaIntervalPartition): used by DAWA's
/// stage 2 to express the workload on the reduced domain.
std::vector<RangeQuery> MapRangesToIntervalPartition(
    const std::vector<RangeQuery>& ranges, const Partition& p);

}  // namespace ektelo

#endif  // EKTELO_PLANS_PLANS_H_
