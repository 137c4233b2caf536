// Tag+payload serialization of operator trees.
//
// OperatorCache::GramOperator (matrix/rewrite.h) uses this codec to
// persist a *structured* derived Gram (a Kronecker of child Grams, a
// scaled Gram, ...) to the disk tier, so a warm process loads it instead
// of re-deriving it.  Every built-in operator kind gets a one-byte tag
// and a self-delimiting payload; combinators recurse over their
// children.  The encoding is
// deterministic and bit-exact (doubles by IEEE bit pattern, via the
// store/serialize.h primitives), so encode → decode → encode reproduces
// identical bytes.
//
// Integrity: the root's StructuralHash is written ahead of the tree, and
// DecodeLinOpTree recomputes the hash of the reconstructed tree and
// rejects a mismatch — a checksum-valid but stale or corrupt payload
// (or any drift in a constructor's derived flags) yields nullptr rather
// than a wrong operator.  Since the structural hash function itself is
// versioned by kHashVersion, which the artifact store embeds in every
// record key, hash-scheme changes invalidate persisted trees cleanly.
//
// Unknown LinOp subclasses cannot be encoded (EncodeLinOpTree returns
// false, failing closed) — the same contract as HashProcessStable().
#ifndef EKTELO_STORE_TREE_CODEC_H_
#define EKTELO_STORE_TREE_CODEC_H_

#include "matrix/linop.h"
#include "store/serialize.h"

namespace ektelo::store {

/// Appends the tree (root structural hash + tagged nodes) to `w`.
/// Returns false — leaving `w` in an unspecified, must-discard state —
/// when the tree contains an operator kind the codec does not know or
/// nests deeper than the codec's depth bound.
bool EncodeLinOpTree(const LinOp& op, ByteWriter* w);

/// Reconstructs a tree previously written by EncodeLinOpTree.  Returns
/// nullptr on any truncation, malformed payload, constructor-invariant
/// violation (e.g. a non-power-of-two Wavelet size), or root-hash
/// mismatch.  Never aborts on corrupt input.
LinOpPtr DecodeLinOpTree(ByteReader* r);

}  // namespace ektelo::store

#endif  // EKTELO_STORE_TREE_CODEC_H_
