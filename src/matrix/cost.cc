#include "matrix/cost.h"

#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"

namespace ektelo {

std::size_t ApproxRetainedBytes(const LinOp& op) {
  if (auto* d = dynamic_cast<const DenseOp*>(&op))
    return 64 + d->dense().data().size() * sizeof(double);
  if (auto* s = dynamic_cast<const SparseOp*>(&op)) {
    const CsrMatrix& m = s->csr();
    return 64 +
           (m.indptr().size() + m.indices().size()) * sizeof(std::size_t) +
           m.values().size() * sizeof(double);
  }
  if (auto* r = dynamic_cast<const RangeSetOp*>(&op))
    return 64 + r->ranges().size() * sizeof(Interval);
  if (auto* r2 = dynamic_cast<const RectangleSetOp*>(&op))
    return 64 + r2->rects().size() * sizeof(Rectangle);
  if (auto* g = dynamic_cast<const GramOp*>(&op))
    return 64 + ApproxRetainedBytes(*g->child());
  if (auto* t = dynamic_cast<const TransposeOp*>(&op))
    return 64 + ApproxRetainedBytes(*t->child());
  if (auto* sc = dynamic_cast<const ScaleOp*>(&op))
    return 64 + ApproxRetainedBytes(*sc->child());
  if (auto* rw = dynamic_cast<const RowWeightOp*>(&op))
    return 64 + rw->weights().size() * sizeof(double) +
           ApproxRetainedBytes(*rw->child());
  if (auto* p = dynamic_cast<const ProductOp*>(&op))
    return 64 + ApproxRetainedBytes(*p->a()) + ApproxRetainedBytes(*p->b());
  if (auto* k = dynamic_cast<const KroneckerOp*>(&op))
    return 64 + ApproxRetainedBytes(*k->a()) + ApproxRetainedBytes(*k->b());
  std::size_t total = 64;
  const std::vector<LinOpPtr>* children = nullptr;
  if (auto* v = dynamic_cast<const VStackOp*>(&op)) children = &v->children();
  if (auto* h = dynamic_cast<const HStackOp*>(&op)) children = &h->children();
  if (auto* sm = dynamic_cast<const SumOp*>(&op)) children = &sm->children();
  if (children)
    for (const auto& c : *children) total += ApproxRetainedBytes(*c);
  return total;
}

}  // namespace ektelo
