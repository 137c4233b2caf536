#include "matrix/rewrite.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <list>
#include <optional>
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
#include "store/artifact_store.h"
#include "store/serialize.h"
#include "store/tree_codec.h"
#include "store/write_behind.h"
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

// ------------------------------------------------- hash persistability

bool StructuralHashPersistable(const LinOp& op) {
  // The operator hierarchy answers this itself now: leaves with
  // deterministic hashes override HashProcessStable() to return true,
  // combinators forward the conjunction over their children, and the
  // LinOp default is false — so an unknown subclass (hashed per instance
  // by typeid + address) fails closed without this function having to
  // enumerate every kind with a dynamic_cast chain.
  return op.HashProcessStable();
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
  // 9 was the retired canonical-tree kind; never reuse it, so records
  // left in existing stores can only miss, and age out under the
  // store's byte budget.
};

// ---- disk-tier payload envelope: every persisted artifact embeds the
// ---- key operator's shape and a payload sub-kind ahead of the typed
// ---- bytes.  Together with the store framing ({format version,
// ---- kHashVersion, structural hash, artifact kind} + checksum) this is
// ---- the StructuralEq-compatible guard for cross-process reuse: the
// ---- hash function version must match exactly, and a (vanishingly
// ---- unlikely) same-hash collision between different-shaped operators
// ---- is rejected outright.

constexpr uint8_t kSubCsr = 0;
constexpr uint8_t kSubDense = 1;
constexpr uint8_t kSubScalar = 2;
constexpr uint8_t kSubTree = 3;  // tag+payload operator tree (tree_codec)

void EncodeEnvelope(const LinOp& key, uint8_t sub, store::ByteWriter* w) {
  w->U64(key.rows());
  w->U64(key.cols());
  w->U8(sub);
}

bool DecodeEnvelope(const LinOp& key, store::ByteReader* r, uint8_t* sub) {
  uint64_t rows, cols;
  if (!r->U64(&rows) || !r->U64(&cols) || !r->U8(sub)) return false;
  return rows == key.rows() && cols == key.cols();
}

bool DecodeEnvelopeExpect(const LinOp& key, uint8_t want,
                          store::ByteReader* r) {
  uint8_t sub;
  return DecodeEnvelope(key, r, &sub) && sub == want;
}

obs::Histogram& ProbeSeconds() {
  static obs::Histogram& h = obs::Registry::Global().GetHistogram(
      "ektelo_cache_probe_seconds",
      "Wall time of one operator-cache lookup across both tiers");
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
  std::unique_ptr<obs::Counter[]> owned_counters{new obs::Counter[6]};
  obs::Counter* hits = &owned_counters[0];
  obs::Counter* misses = &owned_counters[1];
  obs::Counter* evictions = &owned_counters[2];

  void BindGlobalMetrics();
  // Persistent second tier (EKTELO_CACHE_DIR / SetDiskTier).  Held by
  // shared_ptr so accessors can snapshot it under mu and keep using it
  // safely across a concurrent SetDiskTier swap; the store flushes its
  // index checkpoint when the last holder releases it.
  std::shared_ptr<store::DiskArtifactStore> disk;
  // Write-behind consumer for disk spills; non-null exactly when `disk`
  // is.  Swapped together with `disk`; jobs capture their own shared_ptr
  // to the store, so a queue outliving a tier swap stays safe.
  std::shared_ptr<store::WriteBehindQueue> wb;
  obs::Counter* disk_hits = &owned_counters[3];
  obs::Counter* disk_misses = &owned_counters[4];
  obs::Counter* disk_writes = &owned_counters[5];
  // Drops accumulated from queues already retired by SetDiskTier; the
  // live queue's drop count is added on top in stats().
  std::size_t disk_write_drops_base = 0;

  std::shared_ptr<store::DiskArtifactStore> DiskSnapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return disk;
  }

  std::shared_ptr<store::WriteBehindQueue> WbSnapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return wb;
  }

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

  /// Must hold mu.  Builds and inserts an entry for `value`.
  template <typename V, typename FillF>
  void InsertValue(const LinOpPtr& key, uint64_t hash, int kind, FillF fill,
                   const V& value) {
    Entry e;
    e.hash = hash;
    e.kind = kind;
    e.key_op = key;
    fill(e, value);
    e.bytes += ApproxRetainedBytes(*key);
    Insert(std::move(e));
  }

  /// Double-checked lookup/compute/insert shared by every accessor: the
  /// compute runs OUTSIDE the lock (it may recurse into the cache), and a
  /// racing thread's earlier insert wins.  `get` reads the typed field
  /// off a hit; `fill` stores the computed value and its artifact bytes
  /// (the key tree's retained bytes are added here, uniformly).
  ///
  /// With a disk tier attached, a memory miss on a process-stable key
  /// probes the store before computing; a verified disk hit is promoted
  /// into memory (`decode` rebuilds the typed value; a reject falls
  /// through to compute).  A computed value is written behind to the
  /// store when `encode` can represent it.  All disk work runs outside
  /// mu; the tier is snapshotted so a concurrent SetDiskTier is safe.
  template <typename V, typename GetF, typename MakeF, typename FillF,
            typename EncodeF, typename DecodeF>
  V Cached(const LinOpPtr& key, uint64_t hash, int kind, GetF get,
           MakeF make, FillF fill, EncodeF encode, DecodeF decode) {
    // The probe span covers lookup across both tiers but never the
    // compute: a miss closes it before make() runs.
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
    std::shared_ptr<store::DiskArtifactStore> d = DiskSnapshot();
    const bool persistable = d != nullptr && StructuralHashPersistable(*key);
    if (persistable) {
      std::vector<uint8_t> payload;
      std::optional<V> decoded;
      const bool got = d->Get({hash, uint32_t(kind)}, &payload);
      if (got) decoded = decode(*key, payload);
      // A checksum-valid record the typed decoder rejects (shape-guard
      // collision, stale encoding) is dropped so the recompute below can
      // re-store a good one — otherwise Put would no-op on the live key
      // and every future process would pay read + recompute forever.
      if (got && !decoded) d->Drop({hash, uint32_t(kind)});
      std::lock_guard<std::mutex> lock(mu);
      if (decoded) {
        disk_hits->Inc();
        probe.Attr("tier", "disk");
        auto it = Find(hash, kind, *key);
        if (it != lru.end()) return get(*it);
        InsertValue(key, hash, kind, fill, *decoded);
        return *decoded;
      }
      disk_misses->Inc();
    }
    probe.Attr("tier", "none");
    probe.Close();
    V value = make();
    {
      std::lock_guard<std::mutex> lock(mu);
      auto it = Find(hash, kind, *key);
      if (it != lru.end()) return get(*it);
      InsertValue(key, hash, kind, fill, value);
    }
    if (persistable) {
      // The spill captures shared ownership of the store and the value,
      // so it is safe to run on the write-behind consumer after an
      // arbitrary tier swap.  No queue means the tier was detached since
      // the snapshot above, and the spill is moot.
      auto spill = [this, d, key, value, hash, kind, encode] {
        store::ByteWriter w;
        if (encode(*key, value, &w) &&
            d->Put({hash, uint32_t(kind)}, w.bytes())) {
          std::lock_guard<std::mutex> lock(mu);
          disk_writes->Inc();
        }
      };
      if (auto q = WbSnapshot())
        (void)q->Enqueue(std::move(spill));  // full queue = counted drop
    }
    return value;
  }
};

namespace {

// ---- shared encode/decode lambable helpers for the disk tier ----

bool EncodeCsrArtifact(const LinOp& key, const CsrMatrix& m,
                       store::ByteWriter* w) {
  EncodeEnvelope(key, kSubCsr, w);
  store::SerializeCsr(m, w);
  return true;
}

std::optional<CsrMatrix> DecodeCsrArtifact(const LinOp& key,
                                           const std::vector<uint8_t>& bytes,
                                           std::size_t rows,
                                           std::size_t cols) {
  store::ByteReader r(bytes);
  CsrMatrix m;
  if (!DecodeEnvelopeExpect(key, kSubCsr, &r) ||
      !store::DeserializeCsr(&r, &m) || r.remaining() != 0 ||
      m.rows() != rows || m.cols() != cols)
    return std::nullopt;
  return m;
}

bool EncodeDenseArtifact(const LinOp& key, const DenseMatrix& m,
                         store::ByteWriter* w) {
  EncodeEnvelope(key, kSubDense, w);
  store::SerializeDense(m, w);
  return true;
}

std::optional<DenseMatrix> DecodeDenseArtifact(
    const LinOp& key, const std::vector<uint8_t>& bytes, std::size_t rows,
    std::size_t cols) {
  store::ByteReader r(bytes);
  DenseMatrix m;
  if (!DecodeEnvelopeExpect(key, kSubDense, &r) ||
      !store::DeserializeDense(&r, &m) || r.remaining() != 0 ||
      m.rows() != rows || m.cols() != cols)
    return std::nullopt;
  return m;
}

bool EncodeScalarArtifact(const LinOp& key, double v, store::ByteWriter* w) {
  EncodeEnvelope(key, kSubScalar, w);
  store::SerializeScalar(v, w);
  return true;
}

std::optional<double> DecodeScalarArtifact(
    const LinOp& key, const std::vector<uint8_t>& bytes) {
  store::ByteReader r(bytes);
  double v;
  if (!DecodeEnvelopeExpect(key, kSubScalar, &r) ||
      !store::DeserializeScalar(&r, &v) || r.remaining() != 0)
    return std::nullopt;
  return v;
}

}  // namespace

// Repoints the traffic counters at registry-registered series, making
// the registry the single source of truth for the process-wide cache
// (serve Stats and the Prometheus endpoint read the same counters this
// code increments).  Called once, before the global instance sees any
// traffic; locally constructed caches keep their private counters.
void OperatorCache::Impl::BindGlobalMetrics() {
  obs::Registry& r = obs::Registry::Global();
  const char* name = "ektelo_cache_requests";
  const char* help = "Operator-cache lookups by tier and event";
  hits = &r.GetCounter(name, help, "tier=\"mem\",event=\"hit\"");
  misses = &r.GetCounter(name, help, "tier=\"mem\",event=\"miss\"");
  disk_hits = &r.GetCounter(name, help, "tier=\"disk\",event=\"hit\"");
  disk_misses = &r.GetCounter(name, help, "tier=\"disk\",event=\"miss\"");
  disk_writes = &r.GetCounter(name, help, "tier=\"disk\",event=\"write\"");
  evictions = &r.GetCounter("ektelo_cache_evictions",
                            "In-memory operator-cache LRU evictions");
}

OperatorCache::OperatorCache() : impl_(new Impl) {}
OperatorCache::~OperatorCache() = default;

OperatorCache& OperatorCache::Global() {
  static OperatorCache* cache = [] {
    auto* c = new OperatorCache;
    c->impl_->BindGlobalMetrics();
    // The disk tier is opt-in via the environment, and attaches only to
    // the process-wide instance (a second writer on the same directory
    // is unsupported, so locally constructed caches stay memory-only).
    // Unset means nothing ever touches the filesystem and the cache
    // behaves exactly as the memory-only tier.
    const char* dir = std::getenv("EKTELO_CACHE_DIR");
    if (dir != nullptr && *dir != '\0') {
      store::DiskStoreOptions opts;
      opts.hash_version = kHashVersion;
      if (const char* b = std::getenv("EKTELO_CACHE_DISK_BYTES")) {
        // Accept only a fully-numeric, non-negative, in-range value ("0"
        // = unbounded); a typo like "1G" or "-1000" must not silently
        // become no budget at all (strtoull would wrap a leading '-'),
        // and an overflowing one must not saturate to ULLONG_MAX.
        char* end = nullptr;
        errno = 0;
        const unsigned long long parsed = std::strtoull(b, &end, 10);
        if (b[0] >= '0' && b[0] <= '9' && end != b && end != nullptr &&
            *end == '\0' && errno != ERANGE) {
          opts.max_bytes = std::size_t(parsed);
        } else {
          std::fprintf(stderr,
                       "ektelo: ignoring unparsable EKTELO_CACHE_DISK_BYTES"
                       "=%s (keeping the %zu-byte default)\n",
                       b, opts.max_bytes);
        }
      }
      auto tier = store::DiskArtifactStore::Open(dir, opts);
      if (!tier) {
        std::fprintf(stderr,
                     "ektelo: EKTELO_CACHE_DIR=%s could not be opened; "
                     "running with the in-memory cache only\n",
                     dir);
      } else {
        c->impl_->disk = std::move(tier);
        c->impl_->wb = std::make_shared<store::WriteBehindQueue>();
        // The instance is intentionally leaked, so the store destructor
        // never runs for the env-attached tier; checkpoint the index at
        // exit.  (Missing it is safe — reopen recovers by scanning the
        // log tail — just slower for big stores.)
        std::atexit([] { OperatorCache::Global().FlushDiskTier(); });
      }
    }
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
      },
      [](const LinOp& key, const V& v, store::ByteWriter* w) {
        return EncodeCsrArtifact(key, *v, w);
      },
      [](const LinOp& key, const std::vector<uint8_t>& b) -> std::optional<V> {
        auto m = DecodeCsrArtifact(key, b, key.rows(), key.cols());
        if (!m) return std::nullopt;
        return std::make_shared<const CsrMatrix>(std::move(*m));
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
      },
      [](const LinOp& key, const V& v, store::ByteWriter* w) {
        return EncodeDenseArtifact(key, *v, w);
      },
      [](const LinOp& key, const std::vector<uint8_t>& b) -> std::optional<V> {
        auto m = DecodeDenseArtifact(key, b, key.rows(), key.cols());
        if (!m) return std::nullopt;
        return std::make_shared<const DenseMatrix>(std::move(*m));
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
      },
      [](const LinOp& key, const V& v, store::ByteWriter* w) {
        return EncodeDenseArtifact(key, *v, w);
      },
      [](const LinOp& key, const std::vector<uint8_t>& b) -> std::optional<V> {
        // A Gram artifact is cols x cols regardless of the key's height.
        auto m = DecodeDenseArtifact(key, b, key.cols(), key.cols());
        if (!m) return std::nullopt;
        return std::make_shared<const DenseMatrix>(std::move(*m));
      });
}

LinOpPtr OperatorCache::SparseWrapped(const LinOpPtr& op) {
  return impl_->Cached<LinOpPtr>(
      op, op->StructuralHash(), kKindSparseWrap,
      [](const Impl::Entry& e) { return e.wrapped; },
      [&] { return MakeSparse(op->MaterializeSparse()); },
      [](Impl::Entry& e, const LinOpPtr& v) {
        e.wrapped = v;
        e.bytes = ApproxRetainedBytes(*v);
      },
      [](const LinOp& key, const LinOpPtr& v, store::ByteWriter* w) {
        auto* sp = dynamic_cast<const SparseOp*>(v.get());
        return sp != nullptr && EncodeCsrArtifact(key, sp->csr(), w);
      },
      [](const LinOp& key,
         const std::vector<uint8_t>& b) -> std::optional<LinOpPtr> {
        auto m = DecodeCsrArtifact(key, b, key.rows(), key.cols());
        if (!m) return std::nullopt;
        // MakeSparse re-derives the binary flag from the (bit-identical)
        // values, so the promoted leaf matches the computed one exactly.
        return MakeSparse(std::move(*m));
      });
}

LinOpPtr OperatorCache::DenseWrapped(const LinOpPtr& op) {
  return impl_->Cached<LinOpPtr>(
      op, op->StructuralHash(), kKindDenseWrap,
      [](const Impl::Entry& e) { return e.wrapped; },
      [&] { return MakeDense(op->MaterializeDense()); },
      [](Impl::Entry& e, const LinOpPtr& v) {
        e.wrapped = v;
        e.bytes = ApproxRetainedBytes(*v);
      },
      [](const LinOp& key, const LinOpPtr& v, store::ByteWriter* w) {
        auto* d = dynamic_cast<const DenseOp*>(v.get());
        return d != nullptr && EncodeDenseArtifact(key, d->dense(), w);
      },
      [](const LinOp& key,
         const std::vector<uint8_t>& b) -> std::optional<LinOpPtr> {
        auto m = DecodeDenseArtifact(key, b, key.rows(), key.cols());
        if (!m) return std::nullopt;
        return MakeDense(std::move(*m));
      });
}

double OperatorCache::Sensitivity(const LinOp& op, int which,
                                  const std::function<double()>& compute) {
  const int kind = which == 1 ? kKindSensL1 : kKindSensL2;
  // A safe cache key needs shared ownership; stack-allocated operators
  // just compute.
  LinOpPtr key = op.weak_from_this().lock();
  if (!key) return compute();
  return impl_->Cached<double>(
      key, op.StructuralHash(), kind,
      [](const Impl::Entry& e) { return e.value; }, compute,
      [](Impl::Entry& e, double v) {
        e.value = v;
        e.bytes = sizeof(Impl::Entry);
      },
      [](const LinOp& k, double v, store::ByteWriter* w) {
        return EncodeScalarArtifact(k, v, w);
      },
      [](const LinOp& k, const std::vector<uint8_t>& b) {
        return DecodeScalarArtifact(k, b);
      });
}

LinOpPtr OperatorCache::GramOperator(const LinOpPtr& op) {
  return impl_->Cached<LinOpPtr>(
      op, op->StructuralHash(), kKindGramOp,
      [](const Impl::Entry& e) { return e.wrapped; },
      [&] { return op->Gram(); },
      [](Impl::Entry& e, const LinOpPtr& v) {
        e.wrapped = v;
        e.bytes = ApproxRetainedBytes(*v);
      },
      [](const LinOp& key, const LinOpPtr& v, store::ByteWriter* w) {
        // Materialized Grams persist as typed leaves; a structured Gram
        // (Kronecker of child Grams, scaled Gram, ...) persists as an
        // encoded tree.  Only the plain lazy GramOp wrapper stays
        // memory-only — it is free to re-derive from the key.
        if (auto* sp = dynamic_cast<const SparseOp*>(v.get()))
          return EncodeCsrArtifact(key, sp->csr(), w);
        if (auto* d = dynamic_cast<const DenseOp*>(v.get()))
          return EncodeDenseArtifact(key, d->dense(), w);
        if (dynamic_cast<const GramOp*>(v.get()) == nullptr &&
            v->HashProcessStable()) {
          EncodeEnvelope(key, kSubTree, w);
          return store::EncodeLinOpTree(*v, w);
        }
        return false;
      },
      [](const LinOp& key,
         const std::vector<uint8_t>& b) -> std::optional<LinOpPtr> {
        store::ByteReader r(b);
        uint8_t sub;
        if (!DecodeEnvelope(key, &r, &sub)) return std::nullopt;
        const std::size_t n = key.cols();  // Gram of (m x n) is n x n
        if (sub == kSubCsr) {
          CsrMatrix m;
          if (!store::DeserializeCsr(&r, &m) || r.remaining() != 0 ||
              m.rows() != n || m.cols() != n)
            return std::nullopt;
          return MakeSparse(std::move(m));
        }
        if (sub == kSubDense) {
          DenseMatrix m;
          if (!store::DeserializeDense(&r, &m) || r.remaining() != 0 ||
              m.rows() != n || m.cols() != n)
            return std::nullopt;
          return MakeDense(std::move(m));
        }
        if (sub == kSubTree) {
          LinOpPtr tree = store::DecodeLinOpTree(&r);
          if (!tree || r.remaining() != 0 || tree->rows() != n ||
              tree->cols() != n)
            return std::nullopt;
          return tree;
        }
        return std::nullopt;
      });
}

double OperatorCache::GramNormSq(const LinOp& gram, std::size_t iters,
                                 const std::function<double()>& compute) {
  LinOpPtr key = gram.weak_from_this().lock();
  if (!key) return compute();
  // The estimate depends on the power-iteration count, so it joins the
  // structural hash in the lookup key.
  StructHash h;
  h.Mix(gram.StructuralHash()).Mix(uint64_t(iters));
  return impl_->Cached<double>(
      key, h.Finish(), kKindNormSq,
      [](const Impl::Entry& e) { return e.value; }, compute,
      [](Impl::Entry& e, double v) {
        e.value = v;
        e.bytes = sizeof(Impl::Entry);
      },
      [](const LinOp& k, double v, store::ByteWriter* w) {
        return EncodeScalarArtifact(k, v, w);
      },
      [](const LinOp& k, const std::vector<uint8_t>& b) {
        return DecodeScalarArtifact(k, b);
      });
}

LinOpPtr OperatorCache::CachedGramOrNull(const LinOp& a) {
  if (!RewriteEnabled()) return nullptr;
  LinOpPtr self = a.weak_from_this().lock();
  if (!self) return nullptr;
  return Global().GramOperator(self);
}

void OperatorCache::SetDiskTier(
    std::unique_ptr<store::DiskArtifactStore> tier) {
  std::shared_ptr<store::DiskArtifactStore> old;
  std::shared_ptr<store::WriteBehindQueue> old_wb;
  std::shared_ptr<store::WriteBehindQueue> next_wb =
      tier != nullptr ? std::make_shared<store::WriteBehindQueue>() : nullptr;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    old = std::move(impl_->disk);
    old_wb = std::move(impl_->wb);
    impl_->disk = std::move(tier);
    impl_->wb = std::move(next_wb);
  }
  if (old_wb != nullptr) {
    // Land every spill already queued for the old tier before it closes
    // (spills hold their own store reference, so stragglers enqueued by
    // threads still using a pre-swap snapshot stay safe too — they just
    // land whenever the old queue's last holder releases it).
    old_wb->Drain();
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->disk_write_drops_base += old_wb->stats().dropped;
  }
  // `old` flushes and closes here (or when its last in-flight user
  // releases the snapshot).
}

store::DiskArtifactStore* OperatorCache::disk_tier() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->disk.get();
}

void OperatorCache::FlushDiskTier() {
  if (auto q = impl_->WbSnapshot()) q->Drain();
  if (auto d = impl_->DiskSnapshot()) d->Flush();
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
  s.disk_hits = impl_->disk_hits->Value();
  s.disk_misses = impl_->disk_misses->Value();
  s.disk_writes = impl_->disk_writes->Value();
  s.disk_write_drops = impl_->disk_write_drops_base;
  if (impl_->wb != nullptr) s.disk_write_drops += impl_->wb->stats().dropped;
  if (impl_->disk != nullptr) {
    const store::DiskArtifactStore::Stats ds = impl_->disk->stats();
    s.disk_degraded = ds.degraded;
    s.disk_io_errors = ds.io_errors;
  }
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
