#include "matrix/rewrite.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
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

std::atomic<int> g_force{-1};

bool EnvEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("EKTELO_REWRITE");
    // Unset, "1", "rules", and historically any non-"0" value: on.
    return v == nullptr ||
           (std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0);
  }();
  return enabled;
}

}  // namespace

bool RewriteEnabled() {
  const int f = g_force.load(std::memory_order_relaxed);
  if (f == 0) return false;
  if (f == 1) return true;
  return EnvEnabled();
}

void SetRewriteEnabled(int force) {
  g_force.store(force == 0 || force == 1 ? force : -1,
                std::memory_order_relaxed);
}

LinOpPtr Rewrite(LinOpPtr op) { return rules::Canonicalize(op); }

LinOpPtr MaybeRewrite(LinOpPtr op) {
  return RewriteEnabled() ? Rewrite(std::move(op)) : op;
}

// ---------------------------------------------------------- OperatorCache

namespace {
enum CacheKind : int {
  kKindSparse = 0,
  kKindDense = 1,
  kKindGramDense = 2,
  kKindSensL1 = 3,
  kKindSensL2 = 4,
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

std::size_t CsrBytes(const CsrMatrix& m) {
  return (m.indptr().size() + m.indices().size()) * sizeof(std::size_t) +
         m.values().size() * sizeof(double);
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
    std::shared_ptr<const CsrMatrix> sparse;
    std::shared_ptr<const DenseMatrix> dense;
    LinOpPtr wrapped;  // SparseWrapped / DenseWrapped leaf
    double value = 0.0;
    std::size_t bytes = 0;
  };

  static bool IsSensitivityKind(int kind) {
    return kind == kKindSensL1 || kind == kKindSensL2;
  }

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
  std::size_t sens_entries = 0;

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
    if (IsSensitivityKind(victim->kind)) --sens_entries;
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
    const bool sens = IsSensitivityKind(e.kind);
    if (sens) {
      // Sensitivity entries are cheap, high-volume (every shared node of
      // every tree inserts one) and often one-shot (MWEM's growing
      // unions).  Cap them at half the cache so a flood cannot crowd out
      // the expensive Gram/materialization artifacts the cache exists
      // for; the cap evicts the least-recently-used sensitivity entry.
      const std::size_t cap = std::max<std::size_t>(1, max_entries / 2);
      if (sens_entries >= cap)
        for (auto it = std::prev(lru.end());; --it) {
          if (IsSensitivityKind(it->kind)) {
            Evict(it);
            break;
          }
          if (it == lru.begin()) break;
        }
      ++sens_entries;
    }
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
// traffic; locally constructed caches keep their private counters.
void OperatorCache::Impl::BindGlobalMetrics() {
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

std::shared_ptr<const CsrMatrix> OperatorCache::MaterializeSparse(
    const LinOpPtr& op) {
  using V = std::shared_ptr<const CsrMatrix>;
  return impl_->Cached<V>(
      op, op->StructuralHash(), kKindSparse,
      [](const Impl::Entry& e) { return e.sparse; },
      [&] { return std::make_shared<const CsrMatrix>(op->MaterializeSparse()); },
      [](Impl::Entry& e, const V& v) {
        e.sparse = v;
        e.bytes = CsrBytes(*v);
      });
}

std::shared_ptr<const DenseMatrix> OperatorCache::MaterializeDense(
    const LinOpPtr& op) {
  using V = std::shared_ptr<const DenseMatrix>;
  return impl_->Cached<V>(
      op, op->StructuralHash(), kKindDense,
      [](const Impl::Entry& e) { return e.dense; },
      [&] {
        return std::make_shared<const DenseMatrix>(op->MaterializeDense());
      },
      [](Impl::Entry& e, const V& v) {
        e.dense = v;
        e.bytes = DenseBytes(*v);
      });
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

double OperatorCache::Sensitivity(const LinOp& op, int which,
                                  const std::function<double()>& compute) {
  const int kind = which == 1 ? kKindSensL1 : kKindSensL2;
  // A safe cache key needs shared ownership; stack-allocated operators
  // just compute.
  LinOpPtr key = op.weak_from_this().lock();
  if (!key) return compute();
  return impl_->Cached<double>(key, op.StructuralHash(), kind,
                               Impl::GetValue, compute, Impl::FillValue);
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
  impl_->sens_entries = 0;
}

}  // namespace ektelo
