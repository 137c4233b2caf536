#include "plans/pipeline.h"

#include <algorithm>
#include <list>
#include <mutex>
#include <string>
#include <utility>

#include "matrix/combinators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/hierarchy.h"
#include "ops/inference.h"
#include "plans/plans.h"
#include "util/check.h"

namespace ektelo {

namespace {
// One latency series per stage kind; the stage name doubles as the
// span type ("plan.select", "plan.measure", ...).
obs::Histogram& StageSeconds(const char* stage_label) {
  obs::Registry& r = obs::Registry::Global();
  static obs::Histogram& select = r.GetHistogram(
      "ektelo_plan_stage_seconds", "Wall time of one plan pipeline stage",
      "stage=\"select\"");
  static obs::Histogram& measure = r.GetHistogram(
      "ektelo_plan_stage_seconds", "Wall time of one plan pipeline stage",
      "stage=\"measure\"");
  static obs::Histogram& partition = r.GetHistogram(
      "ektelo_plan_stage_seconds", "Wall time of one plan pipeline stage",
      "stage=\"partition\"");
  static obs::Histogram& infer = r.GetHistogram(
      "ektelo_plan_stage_seconds", "Wall time of one plan pipeline stage",
      "stage=\"infer\"");
  switch (stage_label[0]) {
    case 's':
      return select;
    case 'm':
      return measure;
    case 'p':
      return partition;
    default:
      return infer;
  }
}
}  // namespace

// ------------------------------------------------- prepared strategies

namespace {

// Bounds of the prepared-strategy memo: entries, and bytes of the
// materialized operators they keep alive.  A strategy larger than the
// byte bound is handed out without being kept.
constexpr std::size_t kPreparedMaxEntries = 64;
constexpr std::size_t kPreparedMaxBytes = std::size_t{256} << 20;

struct PreparedEntry {
  std::string plan;
  MatrixMode mode;
  bool shape_only;  // keyed on dims alone
  SelectInput in;   // the key; holds the workload operators alive
  LinOpPtr strategy;
  std::size_t bytes;
};

bool SameKey(const PreparedEntry& e, const std::string& plan,
             MatrixMode mode, bool shape_only, const SelectInput& in) {
  return e.mode == mode && e.shape_only == shape_only && e.plan == plan &&
         e.in.dims == in.dims && e.in.workload == in.workload &&
         e.in.workload_factors == in.workload_factors &&
         std::equal(e.in.ranges.begin(), e.in.ranges.end(),
                    in.ranges.begin(), in.ranges.end(),
                    [](const RangeQuery& a, const RangeQuery& b) {
                      return a.lo == b.lo && a.hi == b.hi;
                    });
}

/// Bytes a prepared strategy keeps resident: its own storage (the matrix
/// of a materialized one; an implicit one describes at most a rectangle,
/// four words, per row) plus the tree topology the solver caches on it.
std::size_t ResidentBytes(const LinOp& op) {
  std::size_t own;
  if (auto* s = dynamic_cast<const SparseOp*>(&op)) {
    const CsrMatrix& m = s->csr();
    own = (m.indptr().size() + m.indices().size()) * sizeof(std::size_t) +
          m.values().size() * sizeof(double);
  } else if (dynamic_cast<const DenseOp*>(&op)) {
    own = op.rows() * op.cols() * sizeof(double);
  } else {
    own = op.rows() * 4 * sizeof(std::size_t);
  }
  return own + LaminarTopology::MaxBytes(op.rows(), op.cols());
}

struct PreparedMemo {
  std::mutex mu;
  std::list<PreparedEntry> lru;  // front = most recently used
  std::size_t bytes = 0;

  /// Must hold mu.  Null on a miss.
  LinOpPtr Find(const std::string& plan, MatrixMode mode, bool shape_only,
                const SelectInput& in) {
    for (auto it = lru.begin(); it != lru.end(); ++it)
      if (SameKey(*it, plan, mode, shape_only, in)) {
        lru.splice(lru.begin(), lru, it);
        return it->strategy;
      }
    return nullptr;
  }

  static PreparedMemo& Global() {
    static PreparedMemo* memo = new PreparedMemo;
    return *memo;
  }
};

/// ApplyMode(select(), mode) through the memo, keyed on (plan, mode,
/// shape_only, key).
StatusOr<LinOpPtr> Prepare(const std::string& plan, MatrixMode mode,
                           bool shape_only, const SelectInput& key,
                           const std::function<StatusOr<LinOpPtr>()>& select,
                           bool* hit) {
  if (hit != nullptr) *hit = false;
  PreparedMemo& memo = PreparedMemo::Global();
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    if (LinOpPtr op = memo.Find(plan, mode, shape_only, key)) {
      if (hit != nullptr) *hit = true;
      return op;
    }
  }
  // Select outside the lock.  When a concurrent preparation of the same
  // key lands first, its instance wins, so every caller measures one
  // operator.
  EK_ASSIGN_OR_RETURN(LinOpPtr op, select());
  op = ApplyMode(std::move(op), mode);
  const std::size_t bytes = ResidentBytes(*op);
  std::lock_guard<std::mutex> lock(memo.mu);
  if (LinOpPtr first = memo.Find(plan, mode, shape_only, key)) return first;
  if (bytes > kPreparedMaxBytes) return op;
  memo.lru.push_front({plan, mode, shape_only, key, op, bytes});
  memo.bytes += bytes;
  while (memo.lru.size() > kPreparedMaxEntries ||
         memo.bytes > kPreparedMaxBytes) {
    memo.bytes -= memo.lru.back().bytes;
    memo.lru.pop_back();
  }
  return op;
}

/// The Select stage's body: before any partition stage the strategy comes
/// from `prepare` (when the selector may be prepared in this mode), after
/// one from `select` on the reduced domain.
Status SetStrategy(StageContext& sc,
                   const std::function<StatusOr<LinOpPtr>()>& select,
                   const std::function<StatusOr<LinOpPtr>(bool*)>& prepare) {
  obs::Span span("plan.select", "plan", &StageSeconds("select"));
  LinOpPtr op;
  if (sc.reduce_op || !prepare) {
    EK_ASSIGN_OR_RETURN(op, select());
    op = ApplyMode(std::move(op), sc.mode);
  } else {
    bool hit = false;
    EK_ASSIGN_OR_RETURN(op, prepare(&hit));
    span.Attr("prepared", hit ? "hit" : "miss");
  }
  span.Attr("rows", static_cast<double>(op->rows()));
  span.Attr("cols", static_cast<double>(op->cols()));
  sc.strategy = std::move(op);
  return Status::Ok();
}

}  // namespace

StatusOr<LinOpPtr> PrepareStrategy(const std::string& plan, MatrixMode mode,
                                   const SelectInput& in,
                                   const SelectFn& select, bool* hit) {
  if (mode == MatrixMode::kImplicit) {
    if (hit != nullptr) *hit = false;
    return select(in);
  }
  return Prepare(plan, mode, /*shape_only=*/false, in,
                 [&] { return select(in); }, hit);
}

StatusOr<LinOpPtr> PrepareShapeStrategy(const std::string& plan,
                                        MatrixMode mode,
                                        const std::vector<std::size_t>& dims,
                                        const ShapeSelectFn& select,
                                        bool* hit) {
  return Prepare(plan, mode, /*shape_only=*/true, {.dims = dims},
                 [&] { return select(dims); }, hit);
}

void ClearPreparedStrategies() {
  PreparedMemo& memo = PreparedMemo::Global();
  std::lock_guard<std::mutex> lock(memo.mu);
  memo.lru.clear();
  memo.bytes = 0;
}

// ------------------------------------------------------------- stages

Stage Select(SelectFn fn) {
  return [fn = std::move(fn)](StageContext& sc) -> Status {
    const SelectInput in{sc.dims, sc.ranges, sc.in->workload,
                         sc.in->workload_factors};
    std::function<StatusOr<LinOpPtr>(bool*)> prepare;
    if (sc.mode != MatrixMode::kImplicit)
      prepare = [&](bool* hit) {
        return PrepareStrategy(*sc.plan, sc.mode, in, fn, hit);
      };
    return SetStrategy(sc, [&] { return fn(in); }, prepare);
  };
}

Stage SelectByShape(ShapeSelectFn fn) {
  return [fn = std::move(fn)](StageContext& sc) -> Status {
    return SetStrategy(
        sc, [&] { return fn(sc.dims); },
        [&](bool* hit) {
          return PrepareShapeStrategy(*sc.plan, sc.mode, sc.dims, fn, hit);
        });
  };
}

Stage Measure() {
  return [](StageContext& sc) -> Status {
    if (!sc.strategy)
      return Status::FailedPrecondition("Measure before Select");
    obs::Span span("plan.measure", "plan", &StageSeconds("measure"));
    span.Attr("rows", static_cast<double>(sc.strategy->rows()));
    const double eps = sc.scope->remaining();
    span.Attr("epsilon", eps);
    const double sens = sc.strategy->SensitivityL1();
    EK_ASSIGN_OR_RETURN(Vec y,
                        sc.data->Laplace(*sc.strategy, eps, *sc.scope));
    sc.mset.Add(sc.strategy, std::move(y), sens / eps);
    sc.mset_reduce.push_back(sc.reduce_op);
    return Status::Ok();
  };
}

Stage PartitionBy(PartitionFn fn, double frac, bool remap_ranges) {
  return [fn = std::move(fn), frac, remap_ranges](StageContext& sc)
             -> Status {
    obs::Span span("plan.partition", "plan", &StageSeconds("partition"));
    EK_ASSIGN_OR_RETURN(std::vector<BudgetScope> parts,
                        sc.scope->Split({frac, 1.0 - frac}));
    sc.scopes.push_back(std::move(parts[0]));
    BudgetScope& selection = sc.scopes.back();
    sc.scopes.push_back(std::move(parts[1]));
    BudgetScope& rest = sc.scopes.back();

    EK_ASSIGN_OR_RETURN(Partition p,
                        fn(sc, selection.remaining(), selection));
    EK_ASSIGN_OR_RETURN(ProtectedVector reduced,
                        sc.data->ReduceByPartition(p));
    sc.derived.push_back(std::move(reduced));
    sc.data = &sc.derived.back();

    LinOpPtr rop = ApplyMode(p.ReduceOp(), sc.mode);
    sc.reduce_op =
        sc.reduce_op ? MakeProduct(std::move(rop), sc.reduce_op) : rop;
    if (remap_ranges)
      sc.ranges = MapRangesToIntervalPartition(sc.ranges, p);
    sc.dims = {p.num_groups()};
    sc.partition = std::move(p);
    sc.scope = &rest;
    return Status::Ok();
  };
}

namespace {

/// Legacy DAWA volume-aware expansion: solve on the reduced domain, then
/// spread each group's total proportionally to public cell volume
/// (uniform *density* within a group, not uniform count).
Vec VolumeExpand(const MeasurementSet& mset, const Partition& p,
                 const Vec& volumes) {
  Vec z = LeastSquaresInference(mset);
  const std::size_t n = volumes.size();
  Vec group_vol(p.num_groups(), 0.0);
  for (std::size_t c = 0; c < n; ++c)
    group_vol[p.group_of(c)] += std::max(volumes[c], 1.0);
  Vec xhat(n);
  for (std::size_t c = 0; c < n; ++c) {
    const uint32_t g = p.group_of(c);
    xhat[c] = z[g] * std::max(volumes[c], 1.0) / group_vol[g];
  }
  return xhat;
}

}  // namespace

Stage Infer(InferKind kind) {
  return [kind](StageContext& sc) -> Status {
    if (sc.mset.empty())
      return Status::FailedPrecondition("Infer with no measurements");
    obs::Span span("plan.infer", "plan", &StageSeconds("infer"));
    span.Attr("measurements", static_cast<double>(sc.mset.size()));
    if (kind == InferKind::kNone) {
      sc.estimate = sc.mset.items().back().y;
      return Status::Ok();
    }
    EK_CHECK_EQ(sc.mset.size(), sc.mset_reduce.size());
    if (sc.reduce_op && !sc.cell_volumes.empty()) {
      // Volume-aware expansion solves on the final reduced domain, which
      // only makes sense if every measurement was taken there.
      for (const LinOpPtr& r : sc.mset_reduce)
        if (r != sc.reduce_op)
          return Status::FailedPrecondition(
              "volume-aware inference needs all measurements on the "
              "final reduced domain");
      EK_CHECK(sc.partition.has_value());
      sc.estimate = VolumeExpand(sc.mset, *sc.partition, sc.cell_volumes);
    } else if (sc.reduce_op) {
      // Compose each measurement with the reductions in force when it
      // was taken (later reductions do not apply to it), so inference
      // runs once, globally, on the original domain.
      MeasurementSet global;
      const auto& items = sc.mset.items();
      for (std::size_t i = 0; i < items.size(); ++i) {
        const LinOpPtr& reduce = sc.mset_reduce[i];
        // Each composed product reaches the solver as built: the rewrite
        // pass inside LeastSquaresInference does not enter Product nodes.
        global.Add(reduce ? MakeProduct(items[i].m, reduce) : items[i].m,
                   items[i].y, items[i].noise_scale);
      }
      sc.estimate = LeastSquaresInference(global);
    } else {
      sc.estimate = LeastSquaresInference(sc.mset);
    }
    if (kind == InferKind::kClampedLeastSquares)
      for (double& v : sc.estimate) v = std::max(v, 0.0);
    return Status::Ok();
  };
}

PipelinePlan::PipelinePlan(std::string name, PlanTraits traits,
                           std::vector<Stage> stages)
    : Plan(std::move(name), std::move(traits)), stages_(std::move(stages)) {}

StatusOr<Vec> PipelinePlan::Execute(const ProtectedVector& x,
                                    BudgetScope& scope,
                                    const PlanInput& in) const {
  obs::Span span("plan.execute", "plan");
  span.Attr("stages", static_cast<double>(stages_.size()));
  StageContext sc;
  EK_ASSIGN_OR_RETURN(sc.dims, ResolveDims(x, in));
  sc.in = &in;
  sc.plan = &name();
  sc.mode = in.mode;
  sc.data = &x;
  sc.scope = &scope;
  sc.ranges = in.ranges;
  for (const Stage& stage : stages_) EK_RETURN_IF_ERROR(stage(sc));
  return std::move(sc.estimate);
}

}  // namespace ektelo
