#include "plans/reduction_wrapper.h"

#include "util/check.h"

namespace ektelo {

StatusOr<Vec> RunWithWorkloadReduction(const ProtectedVector& x,
                                       BudgetScope& scope,
                                       const PlanInput& in,
                                       const LinOp& workload,
                                       const ReducedPlanFn& body) {
  if (workload.cols() != x.size() ||
      (!in.dims.empty() && DimsProduct(in.dims) != x.size()))
    return Status::InvalidArgument("workload does not match domain");
  if (in.rng == nullptr)
    return Status::InvalidArgument("workload reduction needs PlanInput::rng");
  // Algorithm 4 runs entirely in client space: the workload is public.
  Partition p = WorkloadBasedPartition(workload, in.rng);
  EK_ASSIGN_OR_RETURN(ProtectedVector reduced, x.ReduceByPartition(p));
  PlanInput inner = in;
  inner.dims = {p.num_groups()};
  EK_ASSIGN_OR_RETURN(Vec xr, body(reduced, scope, inner, p));
  if (xr.size() != p.num_groups())
    return Status::Internal("reduced plan returned wrong size");
  return ExpandEstimate(p, xr);
}

}  // namespace ektelo
