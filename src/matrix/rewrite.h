// Algebraic rewrite pass for LinOp expression trees (Halide-flavored
// separation of what an operator *means* from how it is *evaluated*).
//
// SetRewriteEnabled switches the pass on or off:
//
//   on       (default) the bottom-up canonicalizing pass below;
//   off      no rewriting, the reference side of the A/B tests and
//            benches.
//
// Plans compose operators in whatever shape is natural to write —
// per-round measurement stacks, Scale wrappers over materialized
// strategies, Kronecker products of per-dimension factors — and execute
// that tree node by node.  Rewrite() canonicalizes the tree with local,
// semantics-preserving rules before the solve hot paths consume it.  It
// descends through Scale, VStack and Kronecker nodes only and returns
// every other node as the same pointer:
//
//   scale-fold     Scale(c, Dense/CSR leaf)  -> scaled leaf
//   stack-merge    adjacent VStack runs of RangeSet/Total rows -> one
//                  RangeSetOp (one prefix-sum pass per apply instead of
//                  one per child — the MWEM measurement-union fast
//                  path); adjacent CSR leaves -> one CSR; adjacent dense
//                  leaves -> one dense leaf
//   identity-kron  Kron(I_m, I_n)            -> I_mn
//
// Every rule preserves the represented matrix; scale-fold agrees with
// the wrapper to floating-point roundoff, which is why consumers sit
// behind the toggle.  The privacy-relevant path is untouched by
// construction: measurement operators are applied and charged as the
// plan author composed them; rewriting serves inference and
// materialization — post-processing.
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

/// Whether the rewrite pass is active.  On by default.
bool RewriteEnabled();

/// Switches the rewrite pass on or off process-wide.  Used by the A/B
/// benches and the equivalence tests, which restore `true` when done.
void SetRewriteEnabled(bool enabled);

/// Canonicalize an operator tree with the rules above (unconditionally —
/// callers wanting the toggle use MaybeRewrite).  Returns the original
/// pointer when no rule fires, so per-instance caches survive a no-op
/// pass.
LinOpPtr Rewrite(LinOpPtr op);

/// Rewrite(op) when the pass is enabled, op unchanged otherwise.
LinOpPtr MaybeRewrite(LinOpPtr op);

}  // namespace ektelo

#endif  // EKTELO_MATRIX_REWRITE_H_
