#include "matrix/rules.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "matrix/combinators.h"
#include "matrix/cost.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"
#include "util/check.h"

namespace ektelo {
namespace rules {

namespace {

template <typename T>
std::shared_ptr<const T> As(const LinOpPtr& p) {
  return std::dynamic_pointer_cast<const T>(p);
}

bool AllOnes(const Vec& w) {
  for (double v : w)
    if (!BitwiseEq(v, 1.0)) return false;
  return true;
}

/// What a VStack/HStack/Sum child can merge into.
enum class MergeKind { kNone, kRange, kSparse, kDense };

MergeKind MergeKindOf(const LinOpPtr& op) {
  if (As<RangeSetOp>(op)) return MergeKind::kRange;
  // Every row of Ones(m, n) is the full interval [0, n-1]: the prefix-sum
  // evaluation of the merged RangeSet reproduces the direct row sums
  // bitwise (both are the same left-to-right accumulation of x).
  if (As<OnesOp>(op) && op->cols() > 0) return MergeKind::kRange;
  if (As<SparseOp>(op)) return MergeKind::kSparse;
  if (As<DenseOp>(op)) return MergeKind::kDense;
  return MergeKind::kNone;
}

void AppendRanges(const LinOpPtr& op, std::vector<Interval>* out) {
  if (auto rs = As<RangeSetOp>(op)) {
    out->insert(out->end(), rs->ranges().begin(), rs->ranges().end());
    return;
  }
  auto ones = As<OnesOp>(op);
  EK_CHECK(ones != nullptr);
  for (std::size_t i = 0; i < ones->rows(); ++i)
    out->push_back({0, ones->cols() - 1});
}

DenseMatrix VConcatDense(const std::vector<LinOpPtr>& run) {
  std::size_t rows = 0;
  const std::size_t cols = run[0]->cols();
  for (const auto& c : run) rows += c->rows();
  DenseMatrix m(rows, cols);
  std::size_t r0 = 0;
  for (const auto& c : run) {
    const DenseMatrix& d = As<DenseOp>(c)->dense();
    std::copy(d.data().begin(), d.data().end(), m.RowPtr(r0));
    r0 += d.rows();
  }
  return m;
}

// ----------------------------------------------------- Canonicalizer

/// The fixed-order canonicalizing pass.  Run() memoizes by node
/// identity, so shared subtrees rewrite once, and returns the *original*
/// pointer when nothing fires — preserving the per-instance
/// sensitivity cache of an already-canonical tree.
///
/// Each canonical constructor (Scaled, Producted, ...) re-applies the
/// local rules for one node kind on already-rewritten children, never
/// recursing into Run, so termination is by structural descent only.
class Canonicalizer {
 public:
  LinOpPtr Run(const LinOpPtr& op);

 private:
  LinOpPtr Scaled(LinOpPtr child, double c);
  LinOpPtr RowWeighted(LinOpPtr child, Vec w);
  LinOpPtr Transposed(const LinOpPtr& child);
  LinOpPtr Producted(LinOpPtr a, LinOpPtr b, bool binary_hint);
  LinOpPtr Kroned(LinOpPtr a, LinOpPtr b);
  LinOpPtr VStacked(std::vector<LinOpPtr> children);
  LinOpPtr HStacked(std::vector<LinOpPtr> children);
  LinOpPtr Summed(std::vector<LinOpPtr> children);

  LinOpPtr Dispatch(const LinOpPtr& op);
  std::vector<LinOpPtr> RunAll(const std::vector<LinOpPtr>& cs);

  /// True when `out` is an n-ary node of the same class as `orig` whose
  /// children are exactly the (rewritten-in-place) originals.
  template <typename NaryOp>
  bool SameChildren(const LinOpPtr& out,
                    const std::shared_ptr<const NaryOp>& orig,
                    const std::vector<LinOpPtr>& rewritten) {
    auto oo = As<NaryOp>(out);
    if (!oo || oo->children().size() != orig->children().size()) return false;
    for (std::size_t i = 0; i < rewritten.size(); ++i)
      if (rewritten[i] != orig->children()[i] ||
          oo->children()[i] != rewritten[i])
        return false;
    return true;
  }

  std::unordered_map<const LinOp*, std::pair<LinOpPtr, LinOpPtr>> memo_;
};

LinOpPtr Canonicalizer::Run(const LinOpPtr& op) {
  auto it = memo_.find(op.get());
  if (it != memo_.end()) return it->second.second;
  LinOpPtr out = Dispatch(op);
  // The map holds the KEY operator alive too: Gram re-derivation feeds
  // freshly built temporary trees through Run, and without the
  // keep-alive a freed node's address could be reused by a later
  // allocation in the same pass and hit a stale entry.
  memo_.emplace(op.get(), std::make_pair(op, out));
  return out;
}

LinOpPtr Canonicalizer::Scaled(LinOpPtr child, double c) {
  while (auto s = As<ScaleOp>(child)) {
    c *= s->scale();
    child = s->child();
  }
  if (auto rw = As<RowWeightOp>(child)) {
    Vec w = rw->weights();
    for (double& v : w) v *= c;
    return RowWeighted(rw->child(), std::move(w));
  }
  if (c == 1.0) return child;
  if (auto sp = As<SparseOp>(child)) {
    CsrMatrix m = sp->csr();
    for (double& v : m.values()) v *= c;
    return MakeSparse(std::move(m));
  }
  if (auto d = As<DenseOp>(child)) {
    DenseMatrix m = d->dense();
    for (double& v : m.data()) v *= c;
    return MakeDense(std::move(m));
  }
  return MakeScaled(std::move(child), c);
}

LinOpPtr Canonicalizer::RowWeighted(LinOpPtr child, Vec w) {
  for (;;) {
    if (auto s = As<ScaleOp>(child)) {
      for (double& v : w) v *= s->scale();
      child = s->child();
      continue;
    }
    if (auto rw = As<RowWeightOp>(child)) {
      for (std::size_t i = 0; i < w.size(); ++i) w[i] *= rw->weights()[i];
      child = rw->child();
      continue;
    }
    break;
  }
  if (AllOnes(w)) return child;
  if (auto sp = As<SparseOp>(child)) return MakeSparse(sp->csr().ScaleRows(w));
  if (auto d = As<DenseOp>(child)) {
    DenseMatrix m = d->dense();
    for (std::size_t i = 0; i < m.rows(); ++i) {
      double* row = m.RowPtr(i);
      for (std::size_t j = 0; j < m.cols(); ++j) row[j] *= w[i];
    }
    return MakeDense(std::move(m));
  }
  return MakeRowWeight(std::move(child), std::move(w));
}

LinOpPtr Canonicalizer::Transposed(const LinOpPtr& child) {
  if (auto t = As<TransposeOp>(child)) return t->child();
  if (auto s = As<ScaleOp>(child))
    return Scaled(Transposed(s->child()), s->scale());
  if (auto p = As<ProductOp>(child))
    return Producted(Transposed(p->b()), Transposed(p->a()), false);
  if (auto k = As<KroneckerOp>(child))
    return Kroned(Transposed(k->a()), Transposed(k->b()));
  if (auto v = As<VStackOp>(child)) {
    std::vector<LinOpPtr> ts;
    ts.reserve(v->children().size());
    for (const auto& c : v->children()) ts.push_back(Transposed(c));
    return HStacked(std::move(ts));
  }
  if (auto hs = As<HStackOp>(child)) {
    std::vector<LinOpPtr> ts;
    ts.reserve(hs->children().size());
    for (const auto& c : hs->children()) ts.push_back(Transposed(c));
    return VStacked(std::move(ts));
  }
  if (auto sm = As<SumOp>(child)) {
    std::vector<LinOpPtr> ts;
    ts.reserve(sm->children().size());
    for (const auto& c : sm->children()) ts.push_back(Transposed(c));
    return Summed(std::move(ts));
  }
  if (As<GramOp>(child)) return child;  // symmetric
  if (As<IdentityOp>(child)) return child;
  if (auto sp = As<SparseOp>(child)) return MakeSparse(sp->csr().Transpose());
  if (auto d = As<DenseOp>(child)) return MakeDense(d->dense().Transpose());
  return MakeTranspose(child);
}

LinOpPtr Canonicalizer::Producted(LinOpPtr a, LinOpPtr b, bool binary_hint) {
  // Identity factors vanish (Product(I, A) evaluates A then copies).
  if (As<IdentityOp>(a)) return b;
  if (As<IdentityOp>(b)) return a;
  // Hoist scalars so the structural factors can fuse below.
  {
    double c = 1.0;
    bool hoisted = false;
    while (auto sa = As<ScaleOp>(a)) {
      c *= sa->scale();
      a = sa->child();
      hoisted = true;
    }
    while (auto sb = As<ScaleOp>(b)) {
      c *= sb->scale();
      b = sb->child();
      hoisted = true;
    }
    if (hoisted)
      return Scaled(Producted(std::move(a), std::move(b), binary_hint), c);
  }
  // Kronecker mixed-product identity: (A (x) B)(C (x) D) = AC (x) BD
  // when the factor shapes conform.
  {
    auto ka = As<KroneckerOp>(a);
    auto kb = As<KroneckerOp>(b);
    if (ka && kb && ka->a()->cols() == kb->a()->rows() &&
        ka->b()->cols() == kb->b()->rows())
      return Kroned(Producted(ka->a(), kb->a(), false),
                    Producted(ka->b(), kb->b(), false));
  }
  // Two CSR leaves: multiply now when affordable, keep only when the
  // product is no denser than its factors (P P^T of a partition or
  // selection collapses to a diagonal here, short-circuiting its Gram).
  // Both guards are named policy in matrix/cost.h.
  {
    auto sa = As<SparseOp>(a);
    auto sb = As<SparseOp>(b);
    if (sa && sb) {
      const CsrMatrix& ma = sa->csr();
      const CsrMatrix& mb = sb->csr();
      if (SparseFuseWithinBudget(ma.MatmulUpdateBound(mb))) {
        CsrMatrix fused = ma.Matmul(mb);
        if (SparseFuseKeepsDensity(fused.nnz(), ma.nnz(), mb.nnz()))
          return MakeSparse(std::move(fused));
      }
    }
  }
  return MakeProduct(std::move(a), std::move(b), binary_hint);
}

LinOpPtr Canonicalizer::Kroned(LinOpPtr a, LinOpPtr b) {
  {
    double c = 1.0;
    bool hoisted = false;
    while (auto sa = As<ScaleOp>(a)) {
      c *= sa->scale();
      a = sa->child();
      hoisted = true;
    }
    while (auto sb = As<ScaleOp>(b)) {
      c *= sb->scale();
      b = sb->child();
      hoisted = true;
    }
    if (hoisted) return Scaled(Kroned(std::move(a), std::move(b)), c);
  }
  auto ia = As<IdentityOp>(a);
  auto ib = As<IdentityOp>(b);
  if (ia && ib) return MakeIdentityOp(a->rows() * b->rows());
  if (ia && a->rows() == 1) return b;  // I_1 (x) B = B
  if (ib && b->rows() == 1) return a;
  return MakeKronecker(std::move(a), std::move(b));
}

LinOpPtr Canonicalizer::VStacked(std::vector<LinOpPtr> children) {
  // Flatten nested stacks.
  std::vector<LinOpPtr> flat;
  flat.reserve(children.size());
  for (auto& c : children) {
    if (auto v = As<VStackOp>(c))
      flat.insert(flat.end(), v->children().begin(), v->children().end());
    else
      flat.push_back(std::move(c));
  }
  // Hoist per-child Scale/RowWeight wrappers into one row-weight vector
  // when doing so exposes an adjacent mergeable pair underneath (the
  // weighted measurement stacks of NNLS/LSMR inference).
  bool any_wrapped = false;
  std::vector<LinOpPtr> stripped;
  stripped.reserve(flat.size());
  for (const auto& c : flat) {
    if (auto s = As<ScaleOp>(c)) {
      stripped.push_back(s->child());
      any_wrapped = true;
    } else if (auto rw = As<RowWeightOp>(c)) {
      stripped.push_back(rw->child());
      any_wrapped = true;
    } else {
      stripped.push_back(c);
    }
  }
  bool mergeable_pair = false;
  for (std::size_t i = 0; i + 1 < stripped.size() && !mergeable_pair; ++i) {
    const MergeKind k = MergeKindOf(stripped[i]);
    mergeable_pair = k != MergeKind::kNone && k == MergeKindOf(stripped[i + 1]);
  }
  if (any_wrapped && mergeable_pair) {
    Vec w;
    for (const auto& c : flat) {
      if (auto s = As<ScaleOp>(c)) {
        w.insert(w.end(), c->rows(), s->scale());
      } else if (auto rw = As<RowWeightOp>(c)) {
        w.insert(w.end(), rw->weights().begin(), rw->weights().end());
      } else {
        w.insert(w.end(), c->rows(), 1.0);
      }
    }
    return RowWeighted(VStacked(std::move(stripped)), std::move(w));
  }
  // Merge adjacent mergeable runs: RangeSet/Total rows concatenate into
  // one RangeSetOp (one prefix-sum pass per apply — the MWEM
  // measurement-union fast path); CSR and dense leaves concatenate by
  // rows.
  std::vector<LinOpPtr> merged;
  merged.reserve(flat.size());
  for (std::size_t i = 0; i < flat.size();) {
    const MergeKind kind = MergeKindOf(flat[i]);
    std::size_t j = i + 1;
    if (kind != MergeKind::kNone)
      while (j < flat.size() && MergeKindOf(flat[j]) == kind) ++j;
    if (kind == MergeKind::kNone || j == i + 1) {
      merged.push_back(flat[i]);
      i = j > i + 1 ? j : i + 1;
      continue;
    }
    std::vector<LinOpPtr> run(flat.begin() + i, flat.begin() + j);
    switch (kind) {
      case MergeKind::kRange: {
        std::vector<Interval> ranges;
        for (const auto& c : run) AppendRanges(c, &ranges);
        merged.push_back(MakeRangeSetOp(std::move(ranges), run[0]->cols()));
        break;
      }
      case MergeKind::kSparse: {
        std::vector<CsrMatrix> parts;
        parts.reserve(run.size());
        for (const auto& c : run) parts.push_back(As<SparseOp>(c)->csr());
        merged.push_back(MakeSparse(CsrMatrix::VStackMany(parts)));
        break;
      }
      case MergeKind::kDense:
        merged.push_back(MakeDense(VConcatDense(run)));
        break;
      case MergeKind::kNone:
        break;
    }
    i = j;
  }
  return MakeVStack(std::move(merged));
}

LinOpPtr Canonicalizer::HStacked(std::vector<LinOpPtr> children) {
  std::vector<LinOpPtr> flat;
  flat.reserve(children.size());
  for (auto& c : children) {
    if (auto h = As<HStackOp>(c))
      flat.insert(flat.end(), h->children().begin(), h->children().end());
    else
      flat.push_back(std::move(c));
  }
  // Merge adjacent CSR leaves (column offsets of adjacent children are
  // contiguous, so HStackMany over the run is exact).
  std::vector<LinOpPtr> merged;
  merged.reserve(flat.size());
  for (std::size_t i = 0; i < flat.size();) {
    std::size_t j = i + 1;
    if (As<SparseOp>(flat[i]))
      while (j < flat.size() && As<SparseOp>(flat[j])) ++j;
    if (j == i + 1) {
      merged.push_back(flat[i]);
      i = j;
      continue;
    }
    std::vector<CsrMatrix> parts;
    parts.reserve(j - i);
    for (std::size_t k = i; k < j; ++k)
      parts.push_back(As<SparseOp>(flat[k])->csr());
    merged.push_back(MakeSparse(CsrMatrix::HStackMany(parts)));
    i = j;
  }
  return MakeHStack(std::move(merged));
}

LinOpPtr Canonicalizer::Summed(std::vector<LinOpPtr> children) {
  std::vector<LinOpPtr> flat;
  flat.reserve(children.size());
  for (auto& c : children) {
    if (auto s = As<SumOp>(c))
      flat.insert(flat.end(), s->children().begin(), s->children().end());
    else
      flat.push_back(std::move(c));
  }
  // Fold all CSR leaves into one (addition is order-insensitive up to
  // roundoff; the merged leaf takes the first leaf's position), then all
  // dense leaves likewise.
  const auto replace_matching = [](std::vector<LinOpPtr> in,
                                   const LinOpPtr& fused,
                                   const auto& matches) {
    std::vector<LinOpPtr> kept;
    kept.reserve(in.size());
    bool placed = false;
    for (auto& c : in) {
      if (matches(c)) {
        if (!placed) kept.push_back(fused);
        placed = true;
      } else {
        kept.push_back(std::move(c));
      }
    }
    return kept;
  };
  std::vector<const CsrMatrix*> sparse;
  std::vector<const DenseMatrix*> dense;
  for (const auto& c : flat) {
    if (auto sp = As<SparseOp>(c)) sparse.push_back(&sp->csr());
    if (auto d = As<DenseOp>(c)) dense.push_back(&d->dense());
  }
  if (sparse.size() >= 2) {
    std::vector<Triplet> t;
    for (const CsrMatrix* m : sparse)
      for (std::size_t r = 0; r < m->rows(); ++r)
        for (std::size_t p = m->indptr()[r]; p < m->indptr()[r + 1]; ++p)
          t.push_back({r, m->indices()[p], m->values()[p]});
    LinOpPtr fused = MakeSparse(CsrMatrix::FromTriplets(
        flat[0]->rows(), flat[0]->cols(), std::move(t)));
    flat = replace_matching(std::move(flat), fused, [](const LinOpPtr& c) {
      return As<SparseOp>(c) != nullptr;
    });
  }
  if (dense.size() >= 2) {
    DenseMatrix acc(flat[0]->rows(), flat[0]->cols());
    for (const DenseMatrix* m : dense)
      for (std::size_t i = 0; i < acc.data().size(); ++i)
        acc.data()[i] += m->data()[i];
    LinOpPtr fused = MakeDense(std::move(acc));
    flat = replace_matching(std::move(flat), fused, [](const LinOpPtr& c) {
      return As<DenseOp>(c) != nullptr;
    });
  }
  return MakeSum(std::move(flat));
}

// ---- dispatch: rewrite children bottom-up, then canonicalize the node.
// ---- Returns the original pointer when nothing fires, so the
// ---- per-instance sensitivity cache survives a no-op pass.

LinOpPtr Canonicalizer::Dispatch(const LinOpPtr& op) {
  if (auto s = As<ScaleOp>(op)) {
    LinOpPtr c = Run(s->child());
    LinOpPtr out = Scaled(c, s->scale());
    if (c == s->child())
      if (auto so = As<ScaleOp>(out))
        if (so->child() == c && BitwiseEq(so->scale(), s->scale())) return op;
    return out;
  }
  if (auto rw = As<RowWeightOp>(op)) {
    LinOpPtr c = Run(rw->child());
    LinOpPtr out = RowWeighted(c, rw->weights());
    if (c == rw->child())
      if (auto ro = As<RowWeightOp>(out))
        if (ro->child() == c && BitwiseEq(ro->weights(), rw->weights()))
          return op;
    return out;
  }
  if (auto t = As<TransposeOp>(op)) {
    LinOpPtr c = Run(t->child());
    LinOpPtr out = Transposed(c);
    if (c == t->child())
      if (auto to = As<TransposeOp>(out))
        if (to->child() == c) return op;
    return out;
  }
  if (auto p = As<ProductOp>(op)) {
    LinOpPtr a = Run(p->a());
    LinOpPtr b = Run(p->b());
    LinOpPtr out = Producted(a, b, p->is_nonneg_binary());
    if (a == p->a() && b == p->b())
      if (auto po = As<ProductOp>(out))
        if (po->a() == a && po->b() == b) return op;
    return out;
  }
  if (auto k = As<KroneckerOp>(op)) {
    LinOpPtr a = Run(k->a());
    LinOpPtr b = Run(k->b());
    LinOpPtr out = Kroned(a, b);
    if (a == k->a() && b == k->b())
      if (auto ko = As<KroneckerOp>(out))
        if (ko->a() == a && ko->b() == b) return op;
    return out;
  }
  if (auto v = As<VStackOp>(op)) {
    std::vector<LinOpPtr> cs = RunAll(v->children());
    LinOpPtr out = VStacked(cs);
    if (SameChildren(out, v, cs)) return op;
    return out;
  }
  if (auto h = As<HStackOp>(op)) {
    std::vector<LinOpPtr> cs = RunAll(h->children());
    LinOpPtr out = HStacked(cs);
    if (SameChildren(out, h, cs)) return op;
    return out;
  }
  if (auto s = As<SumOp>(op)) {
    std::vector<LinOpPtr> cs = RunAll(s->children());
    LinOpPtr out = Summed(cs);
    if (SameChildren(out, s, cs)) return op;
    return out;
  }
  if (auto g = As<GramOp>(op)) {
    LinOpPtr c = Run(g->child());
    // Re-derive the structured Gram of the rewritten child: after a
    // stack merge or product fusion the child may expose a closed form
    // the original lazy wrapper predates.
    LinOpPtr derived = c->Gram();
    if (auto gd = As<GramOp>(derived)) {
      if (gd->child() == c) return c == g->child() ? op : derived;
    }
    return Run(derived);
  }
  return op;  // leaves and unknown operators are already canonical
}

std::vector<LinOpPtr> Canonicalizer::RunAll(const std::vector<LinOpPtr>& cs) {
  std::vector<LinOpPtr> out;
  out.reserve(cs.size());
  for (const auto& c : cs) out.push_back(Run(c));
  return out;
}

}  // namespace

LinOpPtr Canonicalize(const LinOpPtr& op) {
  if (!op) return op;
  Canonicalizer c;
  LinOpPtr out = c.Run(op);
  EK_CHECK_EQ(out->rows(), op->rows());
  EK_CHECK_EQ(out->cols(), op->cols());
  return out;
}

}  // namespace rules
}  // namespace ektelo
