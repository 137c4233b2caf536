// DP plans for estimating the Naive-Bayes sufficient statistics
// (Sec. 9.3).  The training table's first attribute must be the binary
// label; the remaining attributes are the predictors.
//
//   kIdentity    — plan #1: noisy full contingency vector, marginalized.
//   kWorkload    — Cormode's baseline: measure the 2k+1 histogram
//                  workload directly with Vector Laplace.
//   kWorkloadLs  — NEW: Workload + global least squares (consistency).
//   kSelectLs    — NEW (Algorithm 8): per-histogram subplan selection
//                  (Identity below 80 cells, DAWA partition + measure
//                  above), then global least squares.
#ifndef EKTELO_CLASSIFY_NB_PLANS_H_
#define EKTELO_CLASSIFY_NB_PLANS_H_

#include <string>

#include "classify/naive_bayes.h"
#include "data/table.h"
#include "kernel/kernel.h"
#include "util/status.h"

namespace ektelo {

enum class NbPlanKind { kIdentity, kWorkload, kWorkloadLs, kSelectLs };

std::string NbPlanName(NbPlanKind kind);

struct NbPlanOptions {
  /// SelectLS: domains strictly larger than this use the DAWA subplan.
  std::size_t identity_cutoff = 80;
  /// SelectLS: eps share of each histogram's budget spent on partition
  /// selection in the DAWA branch.
  double partition_frac = 0.3;
};

/// Estimate the NB histograms with the chosen plan, spending eps on the
/// protected training table.
StatusOr<NbHistograms> EstimateNbHistograms(NbPlanKind kind,
                                            const Table& train, double eps,
                                            uint64_t kernel_seed,
                                            const NbPlanOptions& opts = {});

/// Exact (non-private) histograms — the "Unperturbed" upper bound.
NbHistograms ExactNbHistograms(const Table& train);

}  // namespace ektelo

#endif  // EKTELO_CLASSIFY_NB_PLANS_H_
