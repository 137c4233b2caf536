#include "matrix/rewrite.h"

#include <atomic>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "matrix/combinators.h"
#include "matrix/cost.h"
#include "matrix/implicit_ops.h"
#include "matrix/range_ops.h"
#include "matrix/rules.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace ektelo {

// ------------------------------------------------------------------ toggle

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool RewriteEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetRewriteEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

LinOpPtr Rewrite(LinOpPtr op) { return rules::Canonicalize(op); }

LinOpPtr MaybeRewrite(LinOpPtr op) {
  return RewriteEnabled() ? Rewrite(std::move(op)) : op;
}

// ---------------------------------------------------------- OperatorCache

namespace {
// The values double as the `kind` attribute of cache.probe trace spans,
// so they stay fixed; retired kinds' values (0, 1, 3, 4) are not reused.
enum CacheKind : int {
  kKindGramDense = 2,
  kKindSparseWrap = 5,
  kKindDenseWrap = 6,
  kKindGramOp = 7,
  kKindNormSq = 8,
};

obs::Histogram& ProbeSeconds() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "ektelo_cache_probe_seconds",
      "Wall time of one operator-cache lookup");
  return h;
}

std::size_t DenseBytes(const DenseMatrix& m) {
  return m.data().size() * sizeof(double);
}
}  // namespace

struct OperatorCache::Impl {
  struct Entry {
    uint64_t hash = 0;
    int kind = 0;
    LinOpPtr key_op;  // keeps the key alive for StructuralEq verification
    std::shared_ptr<const DenseMatrix> dense;
    LinOpPtr wrapped;  // SparseWrapped / DenseWrapped leaf
    double value = 0.0;
    std::size_t bytes = 0;
  };

  // Typed get/fill pairs shared by the accessors below.
  static LinOpPtr GetWrapped(const Entry& e) { return e.wrapped; }
  static void FillWrapped(Entry& e, const LinOpPtr& v) {
    e.wrapped = v;
    e.bytes = ApproxRetainedBytes(*v);
  }
  static double GetValue(const Entry& e) { return e.value; }
  static void FillValue(Entry& e, double v) {
    e.value = v;
    e.bytes = sizeof(Entry);
  }

  mutable std::mutex mu;
  std::list<Entry> lru;  // front = most recently used
  std::unordered_multimap<uint64_t, std::list<Entry>::iterator> index;
  std::size_t max_entries = 1024;
  std::size_t max_bytes = std::size_t{256} << 20;
  std::size_t bytes = 0;

  // Traffic counters live in obs::Counter objects so the process-wide
  // instance binds them straight into the metrics registry (the single
  // source of truth behind serve Stats and the Prometheus endpoint —
  // see BindGlobalMetrics), while locally constructed caches keep
  // private per-instance counters with the same since-construction
  // semantics.  Sharded counters are thread-safe on their own; the
  // increments below just happen to also sit under mu.
  std::unique_ptr<obs::Counter[]> owned_counters{new obs::Counter[3]};
  obs::Counter* hits = &owned_counters[0];
  obs::Counter* misses = &owned_counters[1];
  obs::Counter* evictions = &owned_counters[2];

  void BindGlobalMetrics();

  static uint64_t IndexKey(uint64_t hash, int kind) {
    return hash ^ (uint64_t(kind) * 0x9e3779b97f4a7c15ull);
  }

  /// Must hold mu.  Returns lru.end() on miss.
  std::list<Entry>::iterator Find(uint64_t hash, int kind, const LinOp& op) {
    auto range = index.equal_range(IndexKey(hash, kind));
    for (auto it = range.first; it != range.second; ++it) {
      Entry& e = *it->second;
      if (e.kind == kind && e.hash == hash && e.key_op->StructuralEq(op)) {
        lru.splice(lru.begin(), lru, it->second);
        return lru.begin();
      }
    }
    return lru.end();
  }

  /// Must hold mu.
  void Evict(std::list<Entry>::iterator victim) {
    auto range = index.equal_range(IndexKey(victim->hash, victim->kind));
    for (auto it = range.first; it != range.second; ++it)
      if (it->second == victim) {
        index.erase(it);
        break;
      }
    bytes -= victim->bytes;
    lru.erase(victim);
    evictions->Inc();
  }

  /// Must hold mu.
  void EvictUntilBounded() {
    while (!lru.empty() && (lru.size() > max_entries || bytes > max_bytes))
      Evict(std::prev(lru.end()));
  }

  /// Must hold mu.
  void Insert(Entry e) {
    if (e.bytes > max_bytes) return;  // larger than the whole cache
    bytes += e.bytes;
    lru.push_front(std::move(e));
    index.emplace(IndexKey(lru.front().hash, lru.front().kind), lru.begin());
    EvictUntilBounded();
  }

  /// Double-checked lookup/compute/insert shared by every accessor: the
  /// compute runs OUTSIDE the lock (it may recurse into the cache), and a
  /// racing thread's earlier insert wins.  `get` reads the typed field
  /// off a hit; `fill` stores the computed value and its artifact bytes
  /// (the key tree's retained bytes are added here, uniformly).
  template <typename V, typename GetF, typename MakeF, typename FillF>
  V Cached(const LinOpPtr& key, uint64_t hash, int kind, GetF get,
           MakeF make, FillF fill) {
    // The probe span covers the lookup but never the compute: a miss
    // closes it before make() runs.
    obs::Span probe("cache.probe", "cache", &ProbeSeconds());
    probe.Attr("kind", static_cast<double>(kind));
    {
      std::lock_guard<std::mutex> lock(mu);
      auto it = Find(hash, kind, *key);
      if (it != lru.end()) {
        hits->Inc();
        probe.Attr("tier", "mem");
        return get(*it);
      }
      misses->Inc();
    }
    probe.Attr("tier", "none");
    probe.Close();
    V value = make();
    std::lock_guard<std::mutex> lock(mu);
    auto it = Find(hash, kind, *key);
    if (it != lru.end()) return get(*it);
    Entry e;
    e.hash = hash;
    e.kind = kind;
    e.key_op = key;
    fill(e, value);
    e.bytes += ApproxRetainedBytes(*key);
    Insert(std::move(e));
    return value;
  }
};

// Repoints the traffic counters at registry-registered series, making
// the registry the single source of truth for the process-wide cache
// (the Prometheus endpoint reads the same counters this code
// increments).  Called once, before the global instance sees any
// traffic; locally constructed caches keep their private counters.  The
// probe histogram is registered here too, so every ektelo_cache_* series
// exists from the first touch of Global(), before any probe.
void OperatorCache::Impl::BindGlobalMetrics() {
  ProbeSeconds();
  obs::Registry& r = obs::Registry::Global();
  const char* name = "ektelo_cache_requests";
  const char* help = "Operator-cache lookups by tier and event";
  hits = &r.GetCounter(name, help, "tier=\"mem\",event=\"hit\"");
  misses = &r.GetCounter(name, help, "tier=\"mem\",event=\"miss\"");
  evictions = &r.GetCounter("ektelo_cache_evictions",
                            "In-memory operator-cache LRU evictions");
}

OperatorCache::OperatorCache() : impl_(new Impl) {}
OperatorCache::~OperatorCache() = default;

OperatorCache& OperatorCache::Global() {
  static OperatorCache* cache = [] {
    auto* c = new OperatorCache;
    c->impl_->BindGlobalMetrics();
    return c;
  }();
  return *cache;
}

std::shared_ptr<const DenseMatrix> OperatorCache::GramDense(
    const LinOpPtr& op) {
  using V = std::shared_ptr<const DenseMatrix>;
  return impl_->Cached<V>(
      op, op->StructuralHash(), kKindGramDense,
      [](const Impl::Entry& e) { return e.dense; },
      [&] {
        return std::make_shared<const DenseMatrix>(
            op->Gram()->MaterializeDense());
      },
      [](Impl::Entry& e, const V& v) {
        e.dense = v;
        e.bytes = DenseBytes(*v);
      });
}

LinOpPtr OperatorCache::SparseWrapped(const LinOpPtr& op) {
  return impl_->Cached<LinOpPtr>(
      op, op->StructuralHash(), kKindSparseWrap,
      Impl::GetWrapped, [&] { return MakeSparse(op->MaterializeSparse()); },
      Impl::FillWrapped);
}

LinOpPtr OperatorCache::DenseWrapped(const LinOpPtr& op) {
  return impl_->Cached<LinOpPtr>(
      op, op->StructuralHash(), kKindDenseWrap,
      Impl::GetWrapped, [&] { return MakeDense(op->MaterializeDense()); },
      Impl::FillWrapped);
}

LinOpPtr OperatorCache::GramOperator(const LinOpPtr& op) {
  return impl_->Cached<LinOpPtr>(
      op, op->StructuralHash(), kKindGramOp,
      Impl::GetWrapped, [&] { return op->Gram(); }, Impl::FillWrapped);
}

double OperatorCache::GramNormSq(const LinOp& gram, std::size_t iters,
                                 const std::function<double()>& compute) {
  LinOpPtr key = gram.weak_from_this().lock();
  if (!key) return compute();
  // The estimate depends on the power-iteration count, so it joins the
  // structural hash in the lookup key.
  StructHash h;
  h.Mix(gram.StructuralHash()).Mix(uint64_t(iters));
  return impl_->Cached<double>(key, h.Finish(), kKindNormSq,
                               Impl::GetValue, compute, Impl::FillValue);
}

LinOpPtr OperatorCache::CachedGramOrNull(const LinOp& a) {
  if (!RewriteEnabled()) return nullptr;
  LinOpPtr self = a.weak_from_this().lock();
  if (!self) return nullptr;
  return Global().GramOperator(self);
}

void OperatorCache::SetCapacity(std::size_t max_entries,
                                std::size_t max_bytes) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->max_entries = max_entries;
  impl_->max_bytes = max_bytes;
  impl_->EvictUntilBounded();
}

OperatorCache::Stats OperatorCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Stats s;
  s.hits = impl_->hits->Value();
  s.misses = impl_->misses->Value();
  s.evictions = impl_->evictions->Value();
  s.entries = impl_->lru.size();
  s.bytes = impl_->bytes;
  return s;
}

void OperatorCache::Clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->lru.clear();
  impl_->index.clear();
  impl_->bytes = 0;
}

}  // namespace ektelo
