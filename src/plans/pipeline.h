// Stage-level plan composition mirroring the paper's operator color
// classes (Fig. 2): a PipelinePlan is a declarative sequence of
//
//   PartitionBy  — data-adaptive partition selection + reduce (PA/PD TR)
//   Select       — choose the measurement strategy matrix (S*)
//   Measure      — Vector Laplace of the strategy (LM)
//   Infer        — global inference over all measurements (LS / clamps)
//
// threaded through a shared StageContext.  The context tracks the current
// protected handle (partition stages repoint it at the reduced source),
// the current BudgetScope (partition stages split it), the workload as
// remapped onto the reduced domain, and the composition operator back to
// the original domain — so inference always runs globally, per the
// consistent-inference discipline of Thm. 5.3.
//
// The Fig. 2 single-shot plans are one-liners on top of this:
//
//   Pipeline "DAWA" = { PartitionBy(Dawa, 0.25, remap), Select(GreedyH),
//                       Measure(), Infer(kLeastSquares) }
//
// Iterative plans (MWEM) and parallel-composition plans (grids, stripes)
// implement Plan directly over the typed handles instead.
//
// Selection (Fig. 2's S*) is a function of public inputs only: a SelectFn
// sees a SelectInput — domain shape, range workload, workload operators —
// and no data handle, budget scope or rng.  In the materializing modes
// (sparse/dense), the strategy a plan selects before any partition stage
// is therefore the same for every execution with the same public inputs,
// and PrepareStrategy keeps it: a later execution reuses the materialized
// operator, and the sensitivity cached on that very instance, instead of
// re-materializing it.
#ifndef EKTELO_PLANS_PIPELINE_H_
#define EKTELO_PLANS_PIPELINE_H_

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "matrix/partition.h"
#include "ops/measurement.h"
#include "plans/registry.h"

namespace ektelo {

/// Mutable execution state shared by the stages of one pipeline run.
struct StageContext {
  const PlanInput* in = nullptr;
  const std::string* plan = nullptr;  // the running plan's catalog name
  MatrixMode mode = MatrixMode::kImplicit;

  /// Current protected data: starts at the plan's input vector; partition
  /// stages repoint it at the reduced source they derive.
  const ProtectedVector* data = nullptr;
  std::vector<std::size_t> dims;  // current domain shape

  /// Current budget allowance; partition stages replace it with the
  /// post-selection sub-scope.
  BudgetScope* scope = nullptr;

  /// Current range workload (interval partition stages remap it).
  std::vector<RangeQuery> ranges;

  /// Set by partition stages: the reduction P (mode-converted) whose
  /// composition maps current-domain measurements back onto the original
  /// domain, the partition itself, and optional public per-cell volumes
  /// for density-aware expansion (DAWA after workload reduction).
  LinOpPtr reduce_op;
  std::optional<Partition> partition;
  Vec cell_volumes;

  LinOpPtr strategy;    // set by Select (already mode-converted)
  MeasurementSet mset;  // measurements, expressed on their measure-time
                        // domain
  /// Parallel to mset.items(): the reduce_op in force when each
  /// measurement was taken (null = original domain), so Infer composes
  /// every measurement with exactly the reductions applied before it —
  /// not with later ones.
  std::vector<LinOpPtr> mset_reduce;
  Vec estimate;         // set by Infer

  // Keep-alive storage for handles/scopes derived mid-pipeline.
  std::deque<ProtectedVector> derived;
  std::deque<BudgetScope> scopes;
};

using Stage = std::function<Status(StageContext&)>;

/// The public inputs a strategy selector reads: the current domain shape
/// and range workload (remapped onto the reduced domain after a partition
/// stage) and the client's workload operators.  Every field has a default
/// initializer, so a designated initializer may name any subset.
struct SelectInput {
  std::vector<std::size_t> dims{};
  std::vector<RangeQuery> ranges{};
  LinOpPtr workload{};
  std::vector<LinOpPtr> workload_factors{};

  std::size_t n() const {
    std::size_t total = 1;
    for (std::size_t d : dims) total *= d;
    return total;
  }
};

/// Strategy selector: builds the (implicit) measurement matrix from public
/// inputs; Select applies the matrix mode.
using SelectFn = std::function<StatusOr<LinOpPtr>(const SelectInput&)>;

/// ApplyMode(select(in), mode), prepared once per exact public key — plan
/// name, mode, in.dims, in.ranges and the identities of in.workload and
/// in.workload_factors — and kept in a small process-wide LRU memo.  An
/// entry holds the workload operators it was keyed on, so their addresses
/// stay unique while it lives.  Repeated calls with an equal key return
/// the same LinOpPtr, whose per-instance SensitivityL1 is then computed
/// once.  `select` must read nothing but `in`.  In implicit mode nothing
/// is materialized and nothing is kept: the result is select(in).  `hit`,
/// when given, reports whether the strategy was already prepared.
StatusOr<LinOpPtr> PrepareStrategy(const std::string& plan, MatrixMode mode,
                                   const SelectInput& in,
                                   const SelectFn& select,
                                   bool* hit = nullptr);

/// Drops every prepared strategy: the cold start a fresh process takes.
void ClearPreparedStrategies();

/// Data-adaptive partition selector; spends `eps` through `scope`.
using PartitionFn = std::function<StatusOr<Partition>(
    StageContext&, double eps, BudgetScope& scope)>;

enum class InferKind {
  kNone,                 // estimate = raw answers of the last Measure
  kLeastSquares,         // precision-weighted global LS
  kClampedLeastSquares,  // LS followed by max(., 0) (AHP's post-process)
};

/// S*: sc.strategy = ApplyMode(fn(public inputs), sc.mode), through
/// PrepareStrategy unless a partition stage ran before it (the reduced
/// domain and remapped workload then change with every execution).
Stage Select(SelectFn fn);

/// LM: measure the selected strategy with the scope's entire remaining
/// allowance and append to the measurement set.
Stage Measure();

/// PA/PD + TR: split the scope {frac, 1-frac}, run `fn` on the selection
/// share, reduce the data by the resulting partition, and leave the
/// measurement share as the context's scope.  remap_ranges maps the range
/// workload through the partition (valid for interval partitions).
Stage PartitionBy(PartitionFn fn, double frac, bool remap_ranges);

/// LS / post-processing: produce the original-domain estimate from all
/// measurements (composing with the reduction, or volume-expanding when
/// public cell volumes are present).
Stage Infer(InferKind kind);

/// A Plan that runs a fixed stage sequence.
class PipelinePlan final : public Plan {
 public:
  PipelinePlan(std::string name, PlanTraits traits,
               std::vector<Stage> stages);

  StatusOr<Vec> Execute(const ProtectedVector& x, BudgetScope& scope,
                        const PlanInput& in) const override;

 private:
  std::vector<Stage> stages_;
};

}  // namespace ektelo

#endif  // EKTELO_PLANS_PIPELINE_H_
