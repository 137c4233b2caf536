// The rewrite *rules*: local algebraic transforms over LinOp trees,
// applied by one fixed-order bottom-up canonicalizing pass (identity
// elimination, scale/row-weight hoisting, the Kronecker mixed-product
// identity, guarded CSR fusion, stack flattening and run merging).
// matrix/rewrite.h keeps the on/off toggle and the public
// Rewrite()/MaybeRewrite() entry points; the sparse-fuse guards the pass
// applies are named in matrix/cost.h.
#ifndef EKTELO_MATRIX_RULES_H_
#define EKTELO_MATRIX_RULES_H_

#include "matrix/linop.h"

namespace ektelo {
namespace rules {

/// One full fixed-order pass over a tree (the body of ektelo::Rewrite).
/// Shared subtrees rewrite once, and the original pointer comes back for
/// any subtree no rule changes, so the per-instance sensitivity cache of
/// an already-canonical tree survives.
LinOpPtr Canonicalize(const LinOpPtr& op);

}  // namespace rules
}  // namespace ektelo

#endif  // EKTELO_MATRIX_RULES_H_
