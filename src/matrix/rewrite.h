// Algebraic rewrite engine for LinOp expression trees, plus the
// process-wide OperatorCache (Halide-flavored separation of what an
// operator *means* from how it is *evaluated*).
//
// SetRewriteEnabled switches the engine on or off:
//
//   on       (default) the fixed-order bottom-up canonicalizing pass in
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
// why consumers sit behind the rewrite toggle).  The privacy-relevant
// path is untouched by construction: measurement operators are applied
// and charged as the plan author composed them; rewriting serves
// inference, Gram assembly and materialization — all post-processing.
//
// OperatorCache memoizes the expensive derived artifacts that have a
// consumer — the materialized SparseOp/DenseOp leaves ApplyMode hands to
// plans, the dense Gram of direct inference, and NNLS's derived Gram
// operators and their spectral-norm estimates — under the operator's
// structural hash (see LinOp::StructuralHash), verified by StructuralEq,
// so MWEM-style loops and repeated plan executions that re-derive
// structurally identical operators stop paying per-round recomputation.
// The cache is bounded (entries + approximate bytes, LRU eviction) and
// thread-safe; values are shared_ptr snapshots, so eviction never
// invalidates a consumer.  It lives in process memory only.
//
// Sensitivity is deliberately not memoized here: LinOp::SensitivityL1 is
// computed on (and cached by) the operator being charged, so one
// operator's value can never set another's noise.
#ifndef EKTELO_MATRIX_REWRITE_H_
#define EKTELO_MATRIX_REWRITE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "matrix/linop.h"

namespace ektelo {

/// Whether the rewrite engine (and the OperatorCache consumers gated on
/// it) is active.  On by default.
bool RewriteEnabled();

/// Switches the rewrite engine on or off process-wide.  Used by the A/B
/// benches and the equivalence tests, which restore `true` when done.
void SetRewriteEnabled(bool enabled);

/// Canonicalize an operator tree with the fixed-order rules pass
/// (unconditionally — callers wanting the toggle use MaybeRewrite).
/// Returns the original pointer when no rule fires, so per-instance
/// caches survive a no-op pass.
LinOpPtr Rewrite(LinOpPtr op);

/// Rewrite(op) when the engine is enabled, op unchanged otherwise.
LinOpPtr MaybeRewrite(LinOpPtr op);

/// Bounded, thread-safe memo cache: structural hash -> derived artifact.
class OperatorCache {
 public:
  /// One cache's own counts.  The global instance's hits, misses and
  /// evictions are registry series (ektelo_cache_*); this struct stays
  /// because `entries` and `bytes`, and every count of a locally built
  /// cache, are not in the registry.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };

  /// The process-wide instance every consumer shares.
  static OperatorCache& Global();

  /// Dense Gram (op^T op) via op->Gram()->MaterializeDense(), memoized —
  /// the direct-inference hot path.  The returned snapshot stays valid
  /// after eviction.
  std::shared_ptr<const DenseMatrix> GramDense(const LinOpPtr& op);

  /// Memoized SparseOp / DenseOp *leaf* wrapping op's materialization —
  /// what ApplyMode conversions hand to plans.  A hit is a pointer copy
  /// (no matrix copy), and the shared leaf carries its own per-instance
  /// sensitivity cache across executions — computed on that leaf.
  LinOpPtr SparseWrapped(const LinOpPtr& op);
  LinOpPtr DenseWrapped(const LinOpPtr& op);

  /// Memoized op->Gram(): the derived (possibly materialized — see
  /// SparseOp::Gram's fill guard) Gram operator, keyed by op's hash.
  /// Gram derivation is a deterministic function of op's structure, so a
  /// hit is bitwise-equivalent to re-deriving — NNLS consumes this so
  /// repeated solves against structurally identical stacks stop paying
  /// the sparse A^T A re-materialization.
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
  /// on that fallback.  Used by the NNLS solver.
  static LinOpPtr CachedGramOrNull(const LinOp& a);

  /// Capacity bounds; entries older than the bound are evicted LRU-first.
  void SetCapacity(std::size_t max_entries, std::size_t max_bytes);

  Stats stats() const;
  /// Empties the cache (counters are kept): Clear + re-execution is the
  /// cold-start path a fresh process takes.
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
