// The Plan abstraction and the plan registry.
//
// A Plan is a named, reusable differentially-private algorithm over a
// protected vector: it receives a typed ProtectedVector handle, a
// BudgetScope allowance, and public metadata (PlanInput), and returns an
// estimate of the full data vector.  The privacy guarantee (Thm. 4.1)
// holds for arbitrary Execute bodies because all private interaction goes
// through the kernel via the typed handles.
//
// PlanRegistry is the enumerable catalog of Fig. 2: plans register under
// their catalog name, and benchmarks / examples / equivalence tests drive
// the registry instead of hand-maintained lists — a newly registered plan
// is benchmarked and covered automatically.
//
//   const Plan* dawa = PlanRegistry::Global().Find("DAWA");
//   BudgetScope scope(kernel.BudgetRemaining());
//   StatusOr<Vec> xhat = dawa->Execute(x, scope, {.dims = {n},
//                                                 .ranges = workload});
#ifndef EKTELO_PLANS_REGISTRY_H_
#define EKTELO_PLANS_REGISTRY_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/budget.h"
#include "kernel/handles.h"
#include "plans/plan.h"
#include "util/rng.h"
#include "workload/workloads.h"

namespace ektelo {

/// Number of cells of a domain of shape `dims` (1 for no dims), or nullopt
/// when the product overflows size_t.  Validation of untrusted shapes
/// goes through this: a wrapped product could otherwise match a vector
/// size and pass.
std::optional<std::size_t> DimsProduct(const std::vector<std::size_t>& dims);

/// Public, data-independent inputs to a plan execution.  Every field is
/// safe to choose in untrusted client space; plans read the ones they
/// need and ignore the rest.  Every field has a default initializer, so a
/// designated initializer may name any subset, e.g. {.dims = {n}}.
struct PlanInput {
  /// Domain shape; empty means the flat 1D domain {x.size()}.
  std::vector<std::size_t> dims{};
  /// Physical representation of measurement matrices (Sec. 10.2).
  MatrixMode mode = MatrixMode::kImplicit;
  /// Client-side randomness for plans that need it (e.g. PrivBayes).
  Rng* rng = nullptr;
  /// 1D range workload for workload-adaptive plans (Greedy-H, MWEM, DAWA).
  std::vector<RangeQuery> ranges{};
  /// General workload operator (the Workload/WorkloadLS baselines); when
  /// unset, plans fall back to RangeQueryOp(ranges, n).
  LinOpPtr workload{};
  /// Per-dimension workload factors (HDMM).
  std::vector<LinOpPtr> workload_factors{};
  /// The record total MWEM assumes known.
  double known_total = 0.0;
  /// Stripe dimension for the high-dimensional striped plans.
  std::size_t stripe_dim = 0;

  std::size_t n() const {
    std::size_t total = 1;
    for (std::size_t d : dims) total *= d;
    return total;
  }
};

/// What domain shape a plan targets.  k2D and kMultiDim are structural
/// requirements (checked at Execute); k1D is a harness hint — those plans
/// flatten or Kronecker-compose arbitrary shapes, and registry-driven
/// benchmarks exercise them on a 1D histogram.
enum class DomainKind {
  k1D,       // flattened / per-dimension plans; benchmarked on 1D
  k2D,       // dims.size() == 2 required (spatial plans)
  kMultiDim  // dims.size() >= 2 required (striped plans)
};

/// Static plan metadata.
struct PlanTraits {
  /// Fig. 2 operator signature, e.g. "PD TR SG LM LS".
  std::string signature;
  DomainKind domain = DomainKind::k1D;
  /// Whether the plan's cost is representation-sensitive — registry-driven
  /// benchmarks sweep dense/sparse modes over these plans.
  bool mode_sweep = false;
};

class Plan {
 public:
  Plan(std::string name, PlanTraits traits)
      : name_(std::move(name)), traits_(std::move(traits)) {}
  virtual ~Plan() = default;

  const std::string& name() const { return name_; }
  const std::string& signature() const { return traits_.signature; }
  DomainKind domain() const { return traits_.domain; }
  bool mode_sweep() const { return traits_.mode_sweep; }

  /// Run the plan against `x`, spending from `scope`.  `in.dims` must
  /// multiply out to x.size() (empty dims defaults to {x.size()}).
  virtual StatusOr<Vec> Execute(const ProtectedVector& x, BudgetScope& scope,
                                const PlanInput& in) const = 0;

 protected:
  /// Shape validation shared by implementations: resolves empty dims to
  /// {x.size()} and checks the product.
  StatusOr<std::vector<std::size_t>> ResolveDims(const ProtectedVector& x,
                                                 const PlanInput& in) const;

 private:
  std::string name_;
  PlanTraits traits_;
};

class PlanRegistry {
 public:
  /// The process-wide catalog.  First use registers the built-in Fig. 2
  /// plans (deterministically — no reliance on static-initializer pull-in
  /// from a static library).
  static PlanRegistry& Global();

  /// Registers a plan under its name(); InvalidArgument on duplicates.
  Status Register(std::unique_ptr<Plan> plan);
  /// Register, CHECK-aborting on failure (built-in/static registration,
  /// where a duplicate is a programming error).
  void MustRegister(std::unique_ptr<Plan> plan);

  /// Lookup by exact catalog name; nullptr when absent.
  const Plan* Find(std::string_view name) const;
  /// Lookup that CHECK-aborts when absent (for call sites whose name is a
  /// compile-time constant, where a miss is a programming error).
  const Plan& MustFind(std::string_view name) const;

  /// All plans in registration (catalog) order.
  std::vector<const Plan*> Catalog() const;

  std::size_t size() const { return plans_.size(); }

 private:
  std::vector<std::unique_ptr<Plan>> plans_;
};

namespace plan_registration {
// Built-in registration hooks, one per plan translation unit.  Called from
// PlanRegistry::Global(); referencing them here forces the linker to pull
// the plan objects out of the static library.
void RegisterCatalogPlans(PlanRegistry& registry);   // plans.cc
void RegisterGridPlans(PlanRegistry& registry);      // grid_plans.cc
void RegisterStripedPlans(PlanRegistry& registry);   // striped_plans.cc
}  // namespace plan_registration

}  // namespace ektelo

#endif  // EKTELO_PLANS_REGISTRY_H_
