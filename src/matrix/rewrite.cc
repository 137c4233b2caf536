#include "matrix/rewrite.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"
#include "util/check.h"

namespace ektelo {

namespace {

std::atomic<bool> g_enabled{true};

template <typename T>
std::shared_ptr<const T> As(const LinOpPtr& p) {
  return std::dynamic_pointer_cast<const T>(p);
}

/// What a VStack child can merge into.
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

/// One leaf for a run of adjacent VStack children of one merge kind.
LinOpPtr MergeRun(MergeKind kind, const std::vector<LinOpPtr>& run) {
  if (kind == MergeKind::kRange) {
    std::vector<Interval> ranges;
    for (const auto& c : run) AppendRanges(c, &ranges);
    return MakeRangeSetOp(std::move(ranges), run[0]->cols());
  }
  if (kind == MergeKind::kSparse) {
    std::vector<CsrMatrix> parts;
    parts.reserve(run.size());
    for (const auto& c : run) parts.push_back(As<SparseOp>(c)->csr());
    return MakeSparse(CsrMatrix::VStackMany(parts));
  }
  std::size_t rows = 0;
  for (const auto& c : run) rows += c->rows();
  DenseMatrix m(rows, run[0]->cols());
  std::size_t r0 = 0;
  for (const auto& c : run) {
    const DenseMatrix& d = As<DenseOp>(c)->dense();
    std::copy(d.data().begin(), d.data().end(), m.RowPtr(r0));
    r0 += d.rows();
  }
  return MakeDense(std::move(m));
}

LinOpPtr Canonicalize(const LinOpPtr& op);

/// scale-fold: Scale(c, CSR/dense leaf) -> the scaled leaf.
LinOpPtr CanonicalScale(const ScaleOp& s, const LinOpPtr& op) {
  LinOpPtr c = Canonicalize(s.child());
  if (auto sp = As<SparseOp>(c)) {
    CsrMatrix m = sp->csr();
    for (double& v : m.values()) v *= s.scale();
    return MakeSparse(std::move(m));
  }
  if (auto d = As<DenseOp>(c)) {
    DenseMatrix m = d->dense();
    for (double& v : m.data()) v *= s.scale();
    return MakeDense(std::move(m));
  }
  return c == s.child() ? op : MakeScaled(std::move(c), s.scale());
}

/// Kron(I_m, I_n) -> I_mn.
LinOpPtr CanonicalKron(const KroneckerOp& k, const LinOpPtr& op) {
  LinOpPtr a = Canonicalize(k.a());
  LinOpPtr b = Canonicalize(k.b());
  if (As<IdentityOp>(a) && As<IdentityOp>(b))
    return MakeIdentityOp(a->rows() * b->rows());
  if (a == k.a() && b == k.b()) return op;
  return MakeKronecker(std::move(a), std::move(b));
}

/// stack-merge: adjacent RangeSet/Total children concatenate into one
/// RangeSetOp (one prefix-sum pass per apply — the MWEM
/// measurement-union fast path); CSR and dense leaves concatenate by
/// rows.
LinOpPtr CanonicalVStack(const VStackOp& v, const LinOpPtr& op) {
  std::vector<LinOpPtr> cs;
  cs.reserve(v.children().size());
  bool changed = false;
  for (const auto& c : v.children()) {
    cs.push_back(Canonicalize(c));
    changed = changed || cs.back() != c;
  }
  std::vector<LinOpPtr> merged;
  merged.reserve(cs.size());
  for (std::size_t i = 0; i < cs.size();) {
    const MergeKind kind = MergeKindOf(cs[i]);
    std::size_t j = i + 1;
    if (kind != MergeKind::kNone)
      while (j < cs.size() && MergeKindOf(cs[j]) == kind) ++j;
    if (j == i + 1) {
      merged.push_back(cs[i++]);
      continue;
    }
    merged.push_back(MergeRun(
        kind, std::vector<LinOpPtr>(cs.begin() + i, cs.begin() + j)));
    changed = true;
    i = j;
  }
  return changed ? MakeVStack(std::move(merged)) : op;
}

/// Rewrites children bottom-up, then the node.  Returns the original
/// pointer when nothing fires, so the per-instance sensitivity cache
/// survives a no-op pass.
LinOpPtr Canonicalize(const LinOpPtr& op) {
  if (auto s = As<ScaleOp>(op)) return CanonicalScale(*s, op);
  if (auto k = As<KroneckerOp>(op)) return CanonicalKron(*k, op);
  if (auto v = As<VStackOp>(op)) return CanonicalVStack(*v, op);
  return op;  // no rule rewrites any other node kind
}

}  // namespace

bool RewriteEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetRewriteEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

LinOpPtr Rewrite(LinOpPtr op) {
  if (!op) return op;
  LinOpPtr out = Canonicalize(op);
  EK_CHECK_EQ(out->rows(), op->rows());
  EK_CHECK_EQ(out->cols(), op->cols());
  return out;
}

LinOpPtr MaybeRewrite(LinOpPtr op) {
  return RewriteEnabled() ? Rewrite(std::move(op)) : op;
}

}  // namespace ektelo
