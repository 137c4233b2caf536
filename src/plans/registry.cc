#include "plans/registry.h"

#include <utility>

#include "util/check.h"

namespace ektelo {

std::optional<std::size_t> DimsProduct(const std::vector<std::size_t>& dims) {
  std::size_t total = 1;
  for (std::size_t d : dims)
    if (__builtin_mul_overflow(total, d, &total)) return std::nullopt;
  return total;
}

StatusOr<std::vector<std::size_t>> Plan::ResolveDims(
    const ProtectedVector& x, const PlanInput& in) const {
  std::vector<std::size_t> dims = in.dims;
  if (dims.empty()) dims = {x.size()};
  const std::optional<std::size_t> total = DimsProduct(dims);
  if (!total) return Status::InvalidArgument("dims product overflows");
  if (*total != x.size())
    return Status::InvalidArgument(
        "dims product " + std::to_string(*total) +
        " does not match vector size " + std::to_string(x.size()));
  switch (domain()) {
    case DomainKind::k1D:
      break;  // hint only: these plans flatten arbitrary shapes
    case DomainKind::k2D:
      if (dims.size() != 2)
        return Status::InvalidArgument(name() + " needs a 2D domain");
      break;
    case DomainKind::kMultiDim:
      if (dims.size() < 2)
        return Status::InvalidArgument(name() +
                                       " needs >= 2 dimensions");
      break;
  }
  return dims;
}

PlanRegistry& PlanRegistry::Global() {
  static PlanRegistry* registry = [] {
    auto* r = new PlanRegistry();
    plan_registration::RegisterCatalogPlans(*r);
    plan_registration::RegisterGridPlans(*r);
    plan_registration::RegisterStripedPlans(*r);
    return r;
  }();
  return *registry;
}

Status PlanRegistry::Register(std::unique_ptr<Plan> plan) {
  EK_CHECK(plan != nullptr);
  if (Find(plan->name()) != nullptr)
    return Status::InvalidArgument("duplicate plan name: " + plan->name());
  plans_.push_back(std::move(plan));
  return Status::Ok();
}

void PlanRegistry::MustRegister(std::unique_ptr<Plan> plan) {
  Status st = Register(std::move(plan));
  EK_CHECK(st.ok());
}

const Plan* PlanRegistry::Find(std::string_view name) const {
  for (const auto& p : plans_)
    if (p->name() == name) return p.get();
  return nullptr;
}

const Plan& PlanRegistry::MustFind(std::string_view name) const {
  const Plan* plan = Find(name);
  EK_CHECK(plan != nullptr);
  return *plan;
}

std::vector<const Plan*> PlanRegistry::Catalog() const {
  std::vector<const Plan*> out;
  out.reserve(plans_.size());
  for (const auto& p : plans_) out.push_back(p.get());
  return out;
}

}  // namespace ektelo
