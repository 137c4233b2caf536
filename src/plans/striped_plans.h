// High-dimensional "striped" plans (Sec. 9.2, Fig. 2 #14-#16).
//
// The domain is partitioned into 1D stripes along PlanInput::stripe_dim
// (one stripe per combination of the remaining attributes); a 1D subplan
// runs on every stripe under parallel composition (each stripe's
// measurements ride a SplitParallel sub-scope, mirroring the kernel's
// max-across-children charge); inference is global least squares.
// Because no measurement crosses stripes, the global LS decomposes into
// per-stripe solves, which these implementations exploit (the result is
// identical to solving the stacked system).
//
// HB-Striped_kron expresses the same HB-per-stripe measurements as a
// single Kronecker product Identity ⊗ ... ⊗ HB ⊗ ... ⊗ Identity and
// measures it in one Vector Laplace call — the non-iterative alternative
// whose scalability Fig. 4b compares.
//
// Registered as "HB-Striped", "HB-Striped_kron" and "DAWA-Striped".
#ifndef EKTELO_PLANS_STRIPED_PLANS_H_
#define EKTELO_PLANS_STRIPED_PLANS_H_

#include <memory>

#include "ops/partition_select.h"
#include "plans/plan.h"
#include "plans/registry.h"

namespace ektelo {

/// #15 HB-Striped: PS TP[ SHB LM ] LS.
std::unique_ptr<Plan> MakeHbStripedPlan();

/// #16 HB-Striped_kron: SS LM LS.  PlanInput::mode selects the
/// representation of the Kronecker *factors* (the Kronecker structure
/// itself is kept); materialize_full instead expands the whole product
/// into one flat sparse matrix — the "Basic sparse" ablation of Fig. 4b.
std::unique_ptr<Plan> MakeHbStripedKronPlan(bool materialize_full = false);

struct DawaStripedOptions {
  double partition_frac = 0.25;  // rho, as in the paper (0.25)
  DawaOptions dawa;
};

/// #14 DAWA-Striped: PS TP[ PD TR SG LM ] LS.
std::unique_ptr<Plan> MakeDawaStripedPlan(
    const DawaStripedOptions& opts = {});

}  // namespace ektelo

#endif  // EKTELO_PLANS_STRIPED_PLANS_H_
