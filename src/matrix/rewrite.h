// Algebraic rewrite engine for LinOp expression trees (Halide-flavored
// separation of what an operator *means* from how it is *evaluated*).
//
// SetRewriteEnabled switches the engine on or off:
//
//   on       (default) the fixed-order bottom-up canonicalizing pass in
//            matrix/rules.h, guarded by the named policy in
//            matrix/cost.h;
//   off      no rewriting, the reference side of the A/B tests and
//            benches.
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
// Nothing here is kept across calls.  Derived quantities are methods of
// the operator they describe: SensitivityL1() is cached per instance, on
// the operator being charged, and Gram() is re-derived by each consumer.
// What repeats across executions is the data-independent strategy a plan
// selects from its public inputs, and the pipeline Select stage prepares
// that once (plans/pipeline.h).
#ifndef EKTELO_MATRIX_REWRITE_H_
#define EKTELO_MATRIX_REWRITE_H_

#include "matrix/linop.h"

namespace ektelo {

/// Whether the rewrite engine is active.  On by default.
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

}  // namespace ektelo

#endif  // EKTELO_MATRIX_REWRITE_H_
