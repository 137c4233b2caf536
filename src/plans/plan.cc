#include "plans/plan.h"

namespace ektelo {

const char* MatrixModeName(MatrixMode mode) {
  switch (mode) {
    case MatrixMode::kDense:
      return "dense";
    case MatrixMode::kSparse:
      return "sparse";
    case MatrixMode::kImplicit:
      return "implicit";
  }
  return "?";
}

LinOpPtr ApplyMode(LinOpPtr op, MatrixMode mode) {
  // Conversions run on the blocked core: structured operators materialize
  // directly, everything else streams identity panels through
  // ApplyBlockRaw (LinOp's fallback).  Operators already in the requested
  // representation pass through untouched.
  switch (mode) {
    case MatrixMode::kImplicit:
      return op;
    case MatrixMode::kSparse:
      if (std::dynamic_pointer_cast<const SparseOp>(op)) return op;
      return MakeSparse(op->MaterializeSparse());
    case MatrixMode::kDense:
      if (std::dynamic_pointer_cast<const DenseOp>(op)) return op;
      return MakeDense(op->MaterializeDense());
  }
  return op;
}

}  // namespace ektelo
