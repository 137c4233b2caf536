// Umbrella header: the public API of ektelo-cpp.
//
// The typed client API in three moves — protected handles, budget
// scopes, registered plans:
//
//   #include "ektelo/ektelo.h"
//   using namespace ektelo;
//
//   Rng rng(7);
//   Table t = MakeCensusLike(&rng);
//   ProtectedKernel kernel(t, /*eps_total=*/1.0, /*seed=*/42);
//
//   // 1. Typed handles: table ops on tables, vector ops on vectors —
//   //    misuse is a compile error, not a runtime kernel refusal.
//   ProtectedTable root = ProtectedTable::Root(&kernel);
//   StatusOr<ProtectedVector> x = root.Vectorize();
//
//   // 2. Budget scopes: explicit, checkable eps allocation.  Nested
//   //    splits compose sequentially; SplitParallel mirrors parallel
//   //    composition across partition children.
//   BudgetScope scope(kernel.BudgetRemaining());
//
//   // 3. Plans by name from the registry (the whole Fig. 2 catalog).
//   const Plan* plan = PlanRegistry::Global().Find("HB");
//   PlanInput input;
//   input.dims = {t.schema().TotalDomainSize()};
//   StatusOr<Vec> xhat = plan->Execute(*x, scope, input);
//
// Custom algorithms compose the same pieces: pipelines from stages
// (plans/pipeline.h) for select-measure-infer shapes, or a Plan subclass
// over the typed handles for iterative/parallel control flow.
//
// See examples/ for complete programs.
#ifndef EKTELO_EKTELO_H_
#define EKTELO_EKTELO_H_

#include "classify/evaluation.h"
#include "classify/naive_bayes.h"
#include "classify/nb_plans.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/schema.h"
#include "data/table.h"
#include "kernel/budget.h"
#include "kernel/handles.h"
#include "kernel/kernel.h"
#include "linalg/block.h"
#include "linalg/csr.h"
#include "linalg/dense.h"
#include "linalg/haar.h"
#include "linalg/vec.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/linop.h"
#include "matrix/lsmr.h"
#include "matrix/nnls.h"
#include "matrix/partition.h"
#include "ops/hdmm.h"
#include "ops/hierarchy.h"
#include "ops/inference.h"
#include "ops/measurement.h"
#include "ops/partition_select.h"
#include "ops/privbayes.h"
#include "ops/selection.h"
#include "plans/case_studies.h"
#include "plans/grid_plans.h"
#include "plans/pipeline.h"
#include "plans/plan.h"
#include "plans/plans.h"
#include "plans/reduction_wrapper.h"
#include "plans/registry.h"
#include "plans/striped_plans.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"
#include "workload/reduction.h"
#include "workload/workloads.h"

#endif  // EKTELO_EKTELO_H_
