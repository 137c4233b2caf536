// Algebraic rewrite engine for LinOp expression trees, plus the
// process-wide OperatorCache (Halide-flavored separation of what an
// operator *means* from how it is *evaluated*).
//
// EKTELO_REWRITE switches the engine on or off:
//
//   rules    (default) the fixed-order bottom-up canonicalizing pass in
//            matrix/rules.h, guarded by the named policy in
//            matrix/cost.h;
//   off      no rewriting and no cache consumers, the reference side of
//            the A/B tests and benches.
//
// Plans compose operators in whatever shape is natural to write —
// per-round measurement stacks, Scale/Transpose wrappers, products with
// partition reductions — and execute that tree node by node.  Rewrite()
// canonicalizes the tree with local, semantics-preserving rules before
// the solve/Gram hot paths consume it:
//
//   scale-collapse     Scale(c1, Scale(c2, A))        -> Scale(c1*c2, A)
//   scale-fold         Scale(c, Dense/Sparse leaf)    -> scaled leaf
//   scale-hoist        Product/Kron/VStack of Scales  -> one outer Scale
//   transpose-push     T(T(A)) -> A;  T(AB) -> T(B)T(A);  T(A (x) B) ->
//                      T(A) (x) T(B);  T([A;B]) -> [T(A)|T(B)];  T(Gram)
//                      -> Gram;  T(Dense/Sparse/Identity) -> leaf
//   identity-elim      Product(I, A) / Product(A, I)  -> A;
//                      Kron(I_1, A) / Kron(A, I_1)    -> A;
//                      Kron(I_m, I_n)                 -> I_mn
//   kron-fuse          (A (x) B)(C (x) D) -> (AC) (x) (BD) when shapes
//                      conform (the mixed-product identity)
//   sparse-fuse        Product of two CSR leaves -> one CSR leaf when the
//                      product is affordable and no denser than its
//                      factors (this is what recognizes P P^T of a
//                      partition/selection as diagonal and short-circuits
//                      its Gram)
//   rowweight-fuse     RowWeight of RowWeight/Scale -> one RowWeight;
//                      RowWeight of a Dense/CSR leaf -> scaled leaf;
//                      all-ones weights -> child
//   stack-flatten      nested VStack/HStack/Sum -> one n-ary node
//   stack-merge        adjacent VStack runs of RangeSet/Total rows -> one
//                      RangeSetOp (one prefix-sum pass per apply instead
//                      of one per child — the MWEM measurement-union
//                      fast path); adjacent CSR leaves -> one CSR;
//                      RowWeight/Scale children -> hoisted row weights
//   sum-merge          CSR / dense leaves inside a Sum -> one leaf
//   gram-unwrap        Gram(X) re-derives X's structured Gram after X
//                      itself has been rewritten
//
// Every rule preserves the represented matrix exactly (most are bitwise
// result-preserving; the rest agree to floating-point roundoff, which is
// why consumers sit behind the EKTELO_REWRITE toggle).  The privacy-
// relevant path is untouched by construction: measurement operators are
// applied and charged as the plan author composed them; rewriting serves
// inference, Gram assembly and materialization — all post-processing.
//
// OperatorCache memoizes the expensive derived artifacts (materialized
// CSR, dense Gram, derived Gram operators and their spectral-norm
// estimates, L1/L2 sensitivities) under the operator's structural hash
// (see LinOp::StructuralHash), verified by StructuralEq, so MWEM-style
// loops and repeated plan executions that re-derive structurally
// identical operators stop paying per-round recomputation.  The cache is
// bounded (entries + approximate bytes, LRU eviction) and thread-safe;
// values are shared_ptr snapshots, so eviction never invalidates a
// consumer.
//
// When EKTELO_CACHE_DIR is set, a persistent disk tier (a
// store::DiskArtifactStore in that directory) sits under the in-memory
// cache: a memory miss probes the store (keyed by {kFormatVersion,
// kHashVersion, structural hash, artifact kind}, checksum-verified and
// shape-guarded), promotes hits into memory, and computed artifacts are
// written behind on insert — so a fresh process serving the same
// workloads starts warm.  EKTELO_CACHE_DISK_BYTES bounds the store's
// live bytes (default 1 GiB).  With the variable unset nothing touches
// disk and behavior is bitwise identical to the memory-only cache.
// Only operators whose structural hash is stable across processes
// (StructuralHashPersistable) participate in the disk tier.
#ifndef EKTELO_MATRIX_REWRITE_H_
#define EKTELO_MATRIX_REWRITE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "matrix/linop.h"

namespace ektelo {

namespace store {
class DiskArtifactStore;
}  // namespace store

/// Whether the rewrite engine (and the OperatorCache consumers gated on
/// it) is active.  EKTELO_REWRITE selects it: "0" or "off" -> off;
/// unset or any other value -> on (`rules`).
bool RewriteEnabled();

/// Runtime override of EKTELO_REWRITE: 1 = force on, 0 = force off,
/// -1 = follow the environment again.  Used by the A/B benches and the
/// equivalence tests.
void SetRewriteEnabled(int force);

/// Canonicalize an operator tree with the fixed-order rules pass
/// (unconditionally — callers wanting the toggle use MaybeRewrite).
/// Returns the original pointer when no rule fires, so per-instance
/// caches survive a no-op pass.
LinOpPtr Rewrite(LinOpPtr op);

/// Rewrite(op) when the engine is enabled, op unchanged otherwise.
LinOpPtr MaybeRewrite(LinOpPtr op);

/// True when `op`'s StructuralHash is a pure function of its construction
/// (kinds, shapes, scalar/leaf payloads) — deterministic across processes
/// — which holds for every built-in operator kind, recursively.  Unknown
/// LinOp subclasses hash per-instance (see LinOp::ComputeStructuralHash)
/// and return false: their artifacts stay in the in-memory tier and are
/// never persisted.  The registered-kind audit lives next to kHashVersion
/// (linop.h); extend both together when adding operator kinds.
bool StructuralHashPersistable(const LinOp& op);

/// Bounded, thread-safe memo cache: structural hash -> derived artifact.
class OperatorCache {
 public:
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
    /// Disk-tier traffic (all zero when no tier is attached).  A disk
    /// hit is also counted as a memory miss: the probe only runs after
    /// the in-memory lookup failed.
    std::size_t disk_hits = 0;
    std::size_t disk_misses = 0;
    std::size_t disk_writes = 0;
    /// Writes the bounded write-behind queue refused (full / shutting
    /// down).  A drop only costs a future recompute, never correctness.
    std::size_t disk_write_drops = 0;
    /// Disk-tier health snapshot (store::DiskArtifactStore::Stats).
    /// disk_degraded means the tier tripped into sticky memory-only mode
    /// after a post-open device error; the cache keeps serving from
    /// memory and recomputation, it just stops touching the bad disk.
    bool disk_degraded = false;
    std::size_t disk_io_errors = 0;
  };

  /// The process-wide instance every consumer shares.
  static OperatorCache& Global();

  /// Materialized sparse form of `op`, computed on miss.  The returned
  /// snapshot stays valid after eviction.
  std::shared_ptr<const CsrMatrix> MaterializeSparse(const LinOpPtr& op);

  /// Materialized dense form of `op`.
  std::shared_ptr<const DenseMatrix> MaterializeDense(const LinOpPtr& op);

  /// Dense Gram (op^T op) via op->Gram()->MaterializeDense(), memoized —
  /// the direct-inference hot path.
  std::shared_ptr<const DenseMatrix> GramDense(const LinOpPtr& op);

  /// Memoized SparseOp / DenseOp *leaf* wrapping op's materialization —
  /// what ApplyMode conversions hand to plans.  A hit is a pointer copy
  /// (no matrix copy), and the shared instance carries its per-instance
  /// sensitivity caches across executions.
  LinOpPtr SparseWrapped(const LinOpPtr& op);
  LinOpPtr DenseWrapped(const LinOpPtr& op);

  /// Memoized sensitivity (`which` = 1 or 2 for L1/L2).  `compute` runs
  /// on miss; the cached value is whatever the first structurally-equal
  /// instance computed (deterministic, hence bitwise-reproducible).
  /// Operators not owned by a shared_ptr are computed without caching
  /// (the cache could not hold a safe key).
  double Sensitivity(const LinOp& op, int which,
                     const std::function<double()>& compute);

  /// Memoized op->Gram(): the derived (possibly materialized — see
  /// SparseOp::Gram's fill guard) Gram operator, keyed by op's hash.
  /// Gram derivation is a deterministic function of op's structure, so a
  /// hit is bitwise-equivalent to re-deriving — CG/NNLS consume this so
  /// repeated solves against structurally identical stacks stop paying
  /// the sparse A^T A re-materialization.  Persisted to the disk tier as
  /// a sparse/dense leaf when materialized, or as an encoded tree
  /// (store/tree_codec.h) when the derived Gram is structured — only the
  /// plain lazy GramOp wrapper, free to re-derive, stays memory-only.
  LinOpPtr GramOperator(const LinOpPtr& op);

  /// Memoized spectral-norm-squared estimate of a Gram operator (the
  /// NNLS Lipschitz constant), keyed by {gram's structural hash, iters}.
  /// `compute` must be EstimateSpectralNormSqGram(gram, iters) or an
  /// equally deterministic function — a hit reproduces it bitwise while
  /// skipping the power iterations.  Uncached when `gram` is not
  /// shared-owned.
  double GramNormSq(const LinOp& gram, std::size_t iters,
                    const std::function<double()>& compute);

  /// The memoized Gram for `a` via GramOperator, or nullptr when caching
  /// does not apply — rewriting disabled, or `a` not shared-owned (a
  /// Gram derived from a stack-allocated operator aliases it non-
  /// owningly and must never outlive the solve as a cache key).  Callers
  /// fall back to a.Gram() on nullptr and must not cache artifacts keyed
  /// on that fallback.  Shared by the CG/NNLS solvers.
  static LinOpPtr CachedGramOrNull(const LinOp& a);

  /// Attaches (or, with nullptr, detaches) the persistent disk tier.
  /// The previous tier, if any, has its pending write-behind jobs
  /// drained, then is flushed and closed before this returns — so a
  /// detach/attach cycle on the same directory always reopens a store
  /// holding every artifact computed before the detach.  Called with the
  /// EKTELO_CACHE_DIR store at process start; tests and benches swap
  /// tiers explicitly.
  ///
  /// Attaching a tier also attaches a fresh default-capacity write-
  /// behind queue: every disk spill runs on its background consumer,
  /// never on the computing thread, and a full queue drops the spill
  /// and counts disk_write_drops.  SetDiskTier, FlushDiskTier and
  /// process exit (for the EKTELO_CACHE_DIR tier) drain it.
  void SetDiskTier(std::unique_ptr<store::DiskArtifactStore> tier);

  /// The attached tier (nullptr when none) — for stats inspection; the
  /// pointer stays owned by the cache and is invalidated by SetDiskTier.
  store::DiskArtifactStore* disk_tier() const;

  /// Barrier + checkpoint: drains the write-behind queue (every insert
  /// that happened before this call reaches the store) and flushes the
  /// tier's index checkpoint.  No-op without a tier.
  void FlushDiskTier();

  /// Capacity bounds; entries older than the bound are evicted LRU-first.
  void SetCapacity(std::size_t max_entries, std::size_t max_bytes);

  Stats stats() const;
  /// Empties the in-memory tier (counters are kept).  The disk tier, if
  /// any, is untouched: Clear + re-execution is exactly the cold-start
  /// path a fresh process takes against a populated store.
  void Clear();

  OperatorCache();
  ~OperatorCache();
  OperatorCache(const OperatorCache&) = delete;
  OperatorCache& operator=(const OperatorCache&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ektelo

#endif  // EKTELO_MATRIX_REWRITE_H_
