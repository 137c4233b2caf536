#include "plans/grid_plans.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "matrix/implicit_ops.h"
#include "ops/inference.h"
#include "ops/partition_select.h"
#include "ops/selection.h"
#include "plans/pipeline.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace ektelo {

std::unique_ptr<Plan> MakeQuadtreePlan() {
  return std::make_unique<PipelinePlan>(
      "QuadTree", PlanTraits{"SQ LM LS", DomainKind::k2D, false},
      std::vector<Stage>{
          Select([](const SelectInput& in) -> StatusOr<LinOpPtr> {
            return QuadtreeSelect(in.dims[0], in.dims[1]);
          }),
          Measure(), Infer(InferKind::kLeastSquares)});
}

namespace {

class UniformGridPlan final : public Plan {
 public:
  explicit UniformGridPlan(const UGridOptions& opts)
      : Plan("UniformGrid", PlanTraits{"SU LM LS", DomainKind::k2D, false}),
        opts_(opts) {}

  StatusOr<Vec> Execute(const ProtectedVector& x, BudgetScope& scope,
                        const PlanInput& in) const override {
    EK_ASSIGN_OR_RETURN(std::vector<std::size_t> dims, ResolveDims(x, in));
    const std::size_t nx = dims[0], ny = dims[1];
    EK_ASSIGN_OR_RETURN(
        std::vector<BudgetScope> parts,
        scope.Split({opts_.total_frac, 1.0 - opts_.total_frac}));
    BudgetScope& s_total = parts[0];
    BudgetScope& s_cells = parts[1];
    const double eps_total = s_total.remaining();
    const double eps_cells = s_cells.remaining();

    EK_ASSIGN_OR_RETURN(
        Vec total, x.Laplace(*MakeTotalOp(nx * ny), eps_total, s_total));
    const std::size_t gx =
        UniformGridSide(std::max(total[0], 0.0), eps_cells, nx, opts_.c);
    const std::size_t gy =
        UniformGridSide(std::max(total[0], 0.0), eps_cells, ny, opts_.c);
    LinOpPtr cells = ApplyMode(GridCellsSelect(nx, ny, gx, gy), in.mode);
    EK_ASSIGN_OR_RETURN(Vec y, x.Laplace(*cells, eps_cells, s_cells));
    MeasurementSet mset;
    mset.Add(cells, std::move(y), 1.0 / eps_cells);
    mset.Add(MakeTotalOp(nx * ny), std::move(total), 1.0 / eps_total);
    return LeastSquaresInference(mset);
  }

 private:
  UGridOptions opts_;
};

class AdaptiveGridPlan final : public Plan {
 public:
  explicit AdaptiveGridPlan(const AGridOptions& opts)
      : Plan("AdaptiveGrid",
             PlanTraits{"SU LM LS PU TP[ SA LM ]", DomainKind::k2D, false}),
        opts_(opts) {}

  StatusOr<Vec> Execute(const ProtectedVector& x, BudgetScope& scope,
                        const PlanInput& in) const override {
    EK_ASSIGN_OR_RETURN(std::vector<std::size_t> dims, ResolveDims(x, in));
    const std::size_t nx = dims[0], ny = dims[1];
    EK_ASSIGN_OR_RETURN(
        std::vector<BudgetScope> outer,
        scope.Split({opts_.total_frac, 1.0 - opts_.total_frac}));
    BudgetScope& s_total = outer[0];
    EK_ASSIGN_OR_RETURN(
        std::vector<BudgetScope> rest,
        outer[1].Split({opts_.level1_frac, 1.0 - opts_.level1_frac}));
    BudgetScope& s_level1 = rest[0];
    BudgetScope& s_level2 = rest[1];
    const double eps_total = s_total.remaining();
    const double eps1 = s_level1.remaining();
    const double eps2 = s_level2.remaining();

    EK_ASSIGN_OR_RETURN(
        Vec total, x.Laplace(*MakeTotalOp(nx * ny), eps_total, s_total));
    const double n_est = std::max(total[0], 0.0);
    const std::size_t g1x = UniformGridSide(n_est, eps1, nx, opts_.c1);
    const std::size_t g1y = UniformGridSide(n_est, eps1, ny, opts_.c1);

    // Level 1: coarse grid counts.
    LinOpPtr level1 = ApplyMode(GridCellsSelect(nx, ny, g1x, g1y), in.mode);
    EK_ASSIGN_OR_RETURN(Vec y1, x.Laplace(*level1, eps1, s_level1));

    MeasurementSet mset;
    mset.Add(level1, y1, 1.0 / eps1);
    mset.Add(MakeTotalOp(nx * ny), std::move(total), 1.0 / eps_total);

    // Split by the level-1 grid; refine each block in parallel.  Every
    // block gets the full level-2 allowance: the kernel charges only the
    // max across partition children (Sec. 4.4), which the parallel
    // sub-scopes mirror on the client side.
    Partition grid_part = GridPartition2D(nx, ny, g1x, g1y);
    EK_ASSIGN_OR_RETURN(std::vector<ProtectedVector> children,
                        x.SplitByPartition(grid_part));
    EK_ASSIGN_OR_RETURN(std::vector<BudgetScope> child_scopes,
                        s_level2.SplitParallel(children.size()));
    auto groups = grid_part.Groups();
    EK_CHECK_EQ(children.size(), groups.size());
    EK_CHECK_EQ(children.size(), y1.size());

    // Level 2: every grid block refines independently — its own protected
    // child, its own parallel sub-scope, its own noise stream — so the
    // branches run concurrently through the pool.  Each branch stages its
    // measurement rows locally; the serial-order assembly below
    // renumbers them, so the stacked level-2 measurement (and therefore
    // the inference input) is bitwise-identical at any thread count.
    struct Level2Branch {
      std::vector<Triplet> triplets;  // {branch-local row, global cell, 1}
      std::size_t rows = 0;
      Vec y;
    };
    std::vector<Level2Branch> branches(children.size());
    Status branch_st = ParallelBranches(
        children.size(), [&](std::size_t b) -> Status {
      const auto& cells = groups[b];
      // Second-level side from this block's noisy count (public: y1 is
      // DP).
      const double block_count = std::max(y1[b], 0.0);
      // Block bounding box: cells are row-major within a rectangle, so
      // the first/last cells give the corners.
      const std::size_t i_lo = cells.front() / ny, j_lo = cells.front() % ny;
      const std::size_t i_hi = cells.back() / ny, j_hi = cells.back() % ny;
      const std::size_t height = i_hi - i_lo + 1;
      const std::size_t width = j_hi - j_lo + 1;
      std::size_t g2 = UniformGridSide(block_count, eps2,
                                       std::max(height, width), opts_.c2);
      if (g2 <= 1)
        return Status::Ok();  // sparse block: level-1 count suffices

      // Partition the block's cells into (at most) g2 x g2 sub-blocks.
      std::map<std::size_t, std::vector<std::size_t>> sub;  // id -> cells
      for (std::size_t k = 0; k < cells.size(); ++k) {
        const std::size_t li = cells[k] / ny - i_lo;
        const std::size_t lj = cells[k] % ny - j_lo;
        const std::size_t si = std::min(li * g2 / height, g2 - 1);
        const std::size_t sj = std::min(lj * g2 / width, g2 - 1);
        sub[si * g2 + sj].push_back(k);
      }
      // Local measurement: one indicator row per sub-block.
      Level2Branch& out = branches[b];
      std::vector<Triplet> local;
      std::size_t lrow = 0;
      for (const auto& [sid, ks] : sub) {
        for (std::size_t k : ks) {
          local.push_back({lrow, k, 1.0});
          out.triplets.push_back({lrow, cells[k], 1.0});
        }
        ++lrow;
      }
      out.rows = lrow;
      auto local_m = ApplyMode(
          MakeSparse(CsrMatrix::FromTriplets(lrow, cells.size(),
                                             std::move(local))),
          in.mode);
      EK_ASSIGN_OR_RETURN(
          out.y, children[b].Laplace(*local_m, eps2, child_scopes[b]));
      return Status::Ok();
    });
    EK_RETURN_IF_ERROR(branch_st);

    std::vector<Triplet> level2_triplets;
    Vec level2_y;
    std::size_t row = 0;
    for (const Level2Branch& br : branches) {
      for (const Triplet& t : br.triplets)
        level2_triplets.push_back({row + t.row, t.col, t.value});
      level2_y.insert(level2_y.end(), br.y.begin(), br.y.end());
      row += br.rows;
    }
    if (row > 0) {
      auto global2 = MakeSparse(
          CsrMatrix::FromTriplets(row, nx * ny, std::move(level2_triplets)));
      mset.Add(ApplyMode(global2, in.mode), std::move(level2_y), 1.0 / eps2);
    }
    return LeastSquaresInference(mset);
  }

 private:
  AGridOptions opts_;
};

}  // namespace

std::unique_ptr<Plan> MakeUniformGridPlan(const UGridOptions& opts) {
  return std::make_unique<UniformGridPlan>(opts);
}

std::unique_ptr<Plan> MakeAdaptiveGridPlan(const AGridOptions& opts) {
  return std::make_unique<AdaptiveGridPlan>(opts);
}

namespace plan_registration {

void RegisterGridPlans(PlanRegistry& registry) {
  registry.MustRegister(MakeQuadtreePlan());
  registry.MustRegister(MakeUniformGridPlan({}));
  registry.MustRegister(MakeAdaptiveGridPlan({}));
}

}  // namespace plan_registration

}  // namespace ektelo
