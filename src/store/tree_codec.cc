#include "store/tree_codec.h"

#include <cstdint>
#include <vector>

#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"

namespace ektelo::store {

namespace {

// One byte per node kind.  Append-only: a removed operator kind retires
// its tag, it is never reused — decoders reject unknown tags, and the
// surrounding store record already embeds kFormatVersion + kHashVersion.
enum NodeTag : uint8_t {
  kTagDense = 1,
  kTagSparse = 2,
  kTagIdentity = 3,
  kTagOnes = 4,
  kTagPrefix = 5,
  kTagSuffix = 6,
  kTagWavelet = 7,
  kTagRangeSet = 8,
  kTagRectangleSet = 9,
  kTagTranspose = 10,
  kTagScale = 11,
  kTagRowWeight = 12,
  kTagProduct = 13,
  kTagKronecker = 14,
  kTagVStack = 15,
  kTagHStack = 16,
  kTagSum = 17,
  kTagGram = 18,
};

// Persisted trees are shallow (stack merging flattens them), so a deep
// nest signals a runaway or hostile payload; the bound also keeps the
// recursive decoder stack-safe.
constexpr std::size_t kMaxDepth = 64;
// Allocation backstop for corrupt child counts.
constexpr std::size_t kMaxNodes = std::size_t{1} << 20;

bool EncodeNode(const LinOp& op, std::size_t depth, ByteWriter* w) {
  if (depth > kMaxDepth) return false;

  if (auto* d = dynamic_cast<const DenseOp*>(&op)) {
    w->U8(kTagDense);
    SerializeDense(d->dense(), w);
    return true;
  }
  if (auto* s = dynamic_cast<const SparseOp*>(&op)) {
    w->U8(kTagSparse);
    SerializeCsr(s->csr(), w);
    return true;
  }
  if (dynamic_cast<const IdentityOp*>(&op) != nullptr) {
    w->U8(kTagIdentity);
    w->U64(op.rows());
    return true;
  }
  if (dynamic_cast<const OnesOp*>(&op) != nullptr) {
    w->U8(kTagOnes);
    w->U64(op.rows());
    w->U64(op.cols());
    return true;
  }
  if (dynamic_cast<const PrefixOp*>(&op) != nullptr) {
    w->U8(kTagPrefix);
    w->U64(op.rows());
    return true;
  }
  if (dynamic_cast<const SuffixOp*>(&op) != nullptr) {
    w->U8(kTagSuffix);
    w->U64(op.rows());
    return true;
  }
  if (dynamic_cast<const WaveletOp*>(&op) != nullptr) {
    w->U8(kTagWavelet);
    w->U64(op.rows());
    return true;
  }
  if (auto* r = dynamic_cast<const RangeSetOp*>(&op)) {
    w->U8(kTagRangeSet);
    w->U64(op.cols());
    w->U64(r->ranges().size());
    for (const Interval& iv : r->ranges()) {
      w->U64(iv.lo);
      w->U64(iv.hi);
    }
    return true;
  }
  if (auto* r = dynamic_cast<const RectangleSetOp*>(&op)) {
    w->U8(kTagRectangleSet);
    w->U64(r->nx());
    w->U64(r->ny());
    w->U64(r->rects().size());
    for (const Rectangle& rc : r->rects()) {
      w->U64(rc.x_lo);
      w->U64(rc.x_hi);
      w->U64(rc.y_lo);
      w->U64(rc.y_hi);
    }
    return true;
  }
  if (auto* t = dynamic_cast<const TransposeOp*>(&op)) {
    w->U8(kTagTranspose);
    return EncodeNode(*t->child(), depth + 1, w);
  }
  if (auto* s = dynamic_cast<const ScaleOp*>(&op)) {
    w->U8(kTagScale);
    w->F64(s->scale());
    return EncodeNode(*s->child(), depth + 1, w);
  }
  if (auto* rw = dynamic_cast<const RowWeightOp*>(&op)) {
    w->U8(kTagRowWeight);
    SerializeVec(rw->weights(), w);
    return EncodeNode(*rw->child(), depth + 1, w);
  }
  if (auto* p = dynamic_cast<const ProductOp*>(&op)) {
    w->U8(kTagProduct);
    // The binary flag is a constructor *hint* for ProductOp (it cannot
    // re-derive it from the factors), so it rides in the payload.
    w->U8(op.is_nonneg_binary() ? 1 : 0);
    return EncodeNode(*p->a(), depth + 1, w) &&
           EncodeNode(*p->b(), depth + 1, w);
  }
  if (auto* k = dynamic_cast<const KroneckerOp*>(&op)) {
    w->U8(kTagKronecker);
    return EncodeNode(*k->a(), depth + 1, w) &&
           EncodeNode(*k->b(), depth + 1, w);
  }
  if (auto* g = dynamic_cast<const GramOp*>(&op)) {
    w->U8(kTagGram);
    return EncodeNode(*g->child(), depth + 1, w);
  }
  const std::vector<LinOpPtr>* children = nullptr;
  uint8_t tag = 0;
  if (auto* v = dynamic_cast<const VStackOp*>(&op)) {
    children = &v->children();
    tag = kTagVStack;
  } else if (auto* h = dynamic_cast<const HStackOp*>(&op)) {
    children = &h->children();
    tag = kTagHStack;
  } else if (auto* sm = dynamic_cast<const SumOp*>(&op)) {
    children = &sm->children();
    tag = kTagSum;
  }
  if (children != nullptr) {
    w->U8(tag);
    w->U64(children->size());
    for (const LinOpPtr& c : *children)
      if (!EncodeNode(*c, depth + 1, w)) return false;
    return true;
  }
  return false;  // unknown subclass: fail closed
}

bool IsPow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

LinOpPtr DecodeNode(ByteReader* r, std::size_t depth, std::size_t* nodes) {
  if (depth > kMaxDepth || ++*nodes > kMaxNodes) return nullptr;
  uint8_t tag;
  if (!r->U8(&tag)) return nullptr;

  switch (tag) {
    case kTagDense: {
      DenseMatrix m;
      if (!DeserializeDense(r, &m)) return nullptr;
      return MakeDense(std::move(m));
    }
    case kTagSparse: {
      CsrMatrix m;
      if (!DeserializeCsr(r, &m)) return nullptr;
      return MakeSparse(std::move(m));
    }
    case kTagIdentity: {
      uint64_t n;
      if (!r->U64(&n) || n > kMaxNodes * std::size_t{4096}) return nullptr;
      return MakeIdentityOp(std::size_t(n));
    }
    case kTagOnes: {
      uint64_t m, n;
      if (!r->U64(&m) || !r->U64(&n)) return nullptr;
      return MakeOnesOp(std::size_t(m), std::size_t(n));
    }
    case kTagPrefix: {
      uint64_t n;
      if (!r->U64(&n)) return nullptr;
      return MakePrefixOp(std::size_t(n));
    }
    case kTagSuffix: {
      uint64_t n;
      if (!r->U64(&n)) return nullptr;
      return MakeSuffixOp(std::size_t(n));
    }
    case kTagWavelet: {
      uint64_t n;
      if (!r->U64(&n) || !IsPow2(std::size_t(n))) return nullptr;
      return MakeWaveletOp(std::size_t(n));
    }
    case kTagRangeSet: {
      uint64_t n, count;
      if (!r->U64(&n) || !r->U64(&count) || r->remaining() / 16 < count)
        return nullptr;
      std::vector<Interval> ranges;
      ranges.reserve(std::size_t(count));
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t lo, hi;
        if (!r->U64(&lo) || !r->U64(&hi) || lo > hi || hi >= n)
          return nullptr;
        ranges.push_back({std::size_t(lo), std::size_t(hi)});
      }
      return MakeRangeSetOp(std::move(ranges), std::size_t(n));
    }
    case kTagRectangleSet: {
      uint64_t nx, ny, count;
      if (!r->U64(&nx) || !r->U64(&ny) || !r->U64(&count) || nx == 0 ||
          ny == 0 || r->remaining() / 32 < count)
        return nullptr;
      std::vector<Rectangle> rects;
      rects.reserve(std::size_t(count));
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t xl, xh, yl, yh;
        if (!r->U64(&xl) || !r->U64(&xh) || !r->U64(&yl) || !r->U64(&yh) ||
            xl > xh || xh >= nx || yl > yh || yh >= ny)
          return nullptr;
        rects.push_back({std::size_t(xl), std::size_t(xh), std::size_t(yl),
                         std::size_t(yh)});
      }
      return MakeRectangleSetOp(std::move(rects), std::size_t(nx),
                                std::size_t(ny));
    }
    case kTagTranspose: {
      LinOpPtr c = DecodeNode(r, depth + 1, nodes);
      if (!c) return nullptr;
      return MakeTranspose(std::move(c));
    }
    case kTagScale: {
      double s;
      if (!r->F64(&s)) return nullptr;
      LinOpPtr c = DecodeNode(r, depth + 1, nodes);
      if (!c) return nullptr;
      return MakeScaled(std::move(c), s);
    }
    case kTagRowWeight: {
      Vec w;
      if (!DeserializeVec(r, &w)) return nullptr;
      LinOpPtr c = DecodeNode(r, depth + 1, nodes);
      if (!c || w.size() != c->rows()) return nullptr;
      return MakeRowWeight(std::move(c), std::move(w));
    }
    case kTagProduct: {
      uint8_t binary;
      if (!r->U8(&binary) || binary > 1) return nullptr;
      LinOpPtr a = DecodeNode(r, depth + 1, nodes);
      if (!a) return nullptr;
      LinOpPtr b = DecodeNode(r, depth + 1, nodes);
      if (!b || a->cols() != b->rows()) return nullptr;
      return MakeProduct(std::move(a), std::move(b), binary == 1);
    }
    case kTagKronecker: {
      LinOpPtr a = DecodeNode(r, depth + 1, nodes);
      if (!a) return nullptr;
      LinOpPtr b = DecodeNode(r, depth + 1, nodes);
      if (!b) return nullptr;
      return MakeKronecker(std::move(a), std::move(b));
    }
    case kTagGram: {
      LinOpPtr c = DecodeNode(r, depth + 1, nodes);
      if (!c) return nullptr;
      return c->Gram();
    }
    case kTagVStack:
    case kTagHStack:
    case kTagSum: {
      uint64_t count;
      if (!r->U64(&count) || count == 0 || count > kMaxNodes) return nullptr;
      std::vector<LinOpPtr> cs;
      cs.reserve(std::size_t(count));
      for (uint64_t i = 0; i < count; ++i) {
        LinOpPtr c = DecodeNode(r, depth + 1, nodes);
        if (!c) return nullptr;
        // Enforce the stack constructors' shape invariants here so a
        // corrupt payload fails the decode instead of an EK_CHECK abort.
        if (!cs.empty()) {
          const bool same_cols = c->cols() == cs[0]->cols();
          const bool same_rows = c->rows() == cs[0]->rows();
          if (tag == kTagVStack && !same_cols) return nullptr;
          if (tag == kTagHStack && !same_rows) return nullptr;
          if (tag == kTagSum && (!same_rows || !same_cols)) return nullptr;
        }
        cs.push_back(std::move(c));
      }
      if (tag == kTagVStack) return MakeVStack(std::move(cs));
      if (tag == kTagHStack) return MakeHStack(std::move(cs));
      return MakeSum(std::move(cs));
    }
    default:
      return nullptr;
  }
}

}  // namespace

bool EncodeLinOpTree(const LinOp& op, ByteWriter* w) {
  // Hash stability is the codec's persistence contract: an unknown kind
  // would also fail EncodeNode, but checking up front is cheaper.
  if (!op.HashProcessStable()) return false;
  w->U64(op.StructuralHash());
  return EncodeNode(op, 0, w);
}

LinOpPtr DecodeLinOpTree(ByteReader* r) {
  uint64_t want_hash;
  if (!r->U64(&want_hash)) return nullptr;
  std::size_t nodes = 0;
  LinOpPtr op = DecodeNode(r, 0, &nodes);
  if (!op || op->StructuralHash() != want_hash) return nullptr;
  return op;
}

}  // namespace ektelo::store
