// 2D spatial plans (Fig. 2 #10-#12): Quadtree, UniformGrid, AdaptiveGrid.
// All expect dims = {nx, ny}.
//
// Registered in PlanRegistry as "QuadTree", "UniformGrid" and
// "AdaptiveGrid".  AdaptiveGrid exercises the parallel-composition side
// of the BudgetScope API: its level-2 refinement measures every block of a
// VSplitByPartition under SplitParallel sub-scopes.
#ifndef EKTELO_PLANS_GRID_PLANS_H_
#define EKTELO_PLANS_GRID_PLANS_H_

#include <memory>

#include "plans/plan.h"
#include "plans/registry.h"

namespace ektelo {

/// #10 Quadtree: SQ LM LS.
std::unique_ptr<Plan> MakeQuadtreePlan();

struct UGridOptions {
  /// Share of eps used to estimate N for the grid-size rule.
  double total_frac = 0.05;
  double c = 10.0;  // Qardaji et al.'s constant
};
/// #11 UniformGrid: SU LM LS.
std::unique_ptr<Plan> MakeUniformGridPlan(const UGridOptions& opts = {});

struct AGridOptions {
  double total_frac = 0.05;
  double level1_frac = 0.30;  // of the remainder
  double c1 = 40.0;           // coarse first-level constant
  double c2 = 5.0;            // second-level constant
};
/// #12 AdaptiveGrid: SU LM LS PU TP[ SA LM ] — coarse grid, then a
/// per-cell second-level grid sized by the first level's noisy counts,
/// measured in parallel across the partition, then global LS.
std::unique_ptr<Plan> MakeAdaptiveGridPlan(const AGridOptions& opts = {});

}  // namespace ektelo

#endif  // EKTELO_PLANS_GRID_PLANS_H_
