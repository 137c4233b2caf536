// Workload-driven plan wrapper (Sec. 8 as a first-class operator): given
// any vector plan, run it on the workload-reduced domain and expand the
// estimate back.  By Prop. 8.3 workload answers are preserved and by
// Thm. 8.4 least-squares error can only improve; Table 6 measures the
// practical gains.
#ifndef EKTELO_PLANS_REDUCTION_WRAPPER_H_
#define EKTELO_PLANS_REDUCTION_WRAPPER_H_

#include <functional>

#include "kernel/budget.h"
#include "kernel/handles.h"
#include "plans/registry.h"
#include "workload/reduction.h"

namespace ektelo {

/// A plan body to run on the reduced domain.  Receives the reduced vector,
/// the caller's scope, the caller's input with dims = {p.num_groups()},
/// and the reduction partition p (so range workloads can be remapped via
/// MapRangesToIntervalPartition and data-dependent selectors can
/// normalize by group volume).
using ReducedPlanFn = std::function<StatusOr<Vec>(
    const ProtectedVector&, BudgetScope&, const PlanInput&, const Partition&)>;

/// Compute the workload-based partition of `workload` (Algorithm 4,
/// public, drawing from in.rng), reduce `x`, run `body` on the reduced
/// vector, and expand the estimate uniformly within groups (P+).
/// InvalidArgument when the workload does not match the domain or in.rng
/// is unset.
StatusOr<Vec> RunWithWorkloadReduction(const ProtectedVector& x,
                                       BudgetScope& scope,
                                       const PlanInput& in,
                                       const LinOp& workload,
                                       const ReducedPlanFn& body);

}  // namespace ektelo

#endif  // EKTELO_PLANS_REDUCTION_WRAPPER_H_
