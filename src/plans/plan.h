// Matrix representation modes shared by every plan in the Fig. 2 catalog
// (the Plan interface itself lives in plans/registry.h).
//
// MatrixMode selects the physical representation of measurement matrices
// (Sec. 10.2's dense/sparse/implicit comparison): plans build implicit
// operators and convert them per mode, so the same plan logic exercises
// all three implementations.
#ifndef EKTELO_PLANS_PLAN_H_
#define EKTELO_PLANS_PLAN_H_

#include "matrix/linop.h"

namespace ektelo {

enum class MatrixMode { kDense, kSparse, kImplicit };

const char* MatrixModeName(MatrixMode mode);

/// Convert an implicit operator to the requested physical representation
/// (kImplicit is the identity conversion; the others materialize).
LinOpPtr ApplyMode(LinOpPtr op, MatrixMode mode);

}  // namespace ektelo

#endif  // EKTELO_PLANS_PLAN_H_
