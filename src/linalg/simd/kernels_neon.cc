// NEON (AArch64 Advanced SIMD) dispatch target: the 8 virtual lanes live
// in four 128-bit registers.  vaddq/vsubq/vmulq are IEEE-754 lane ops,
// and the TU is built with -ffp-contract=off so no vfma contraction
// sneaks in — each lane matches the scalar table bit for bit.
//
// NEON is baseline on AArch64, so no extra -m flags are needed; on other
// architectures this TU degrades to a stub returning nullptr.
#include "linalg/simd/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "linalg/simd/kernels_impl.h"

namespace ektelo::simd {

namespace {

struct V8Neon {
  float64x2_t q0, q1, q2, q3;

  static V8Neon Zero() {
    const float64x2_t z = vdupq_n_f64(0.0);
    return {z, z, z, z};
  }
  static V8Neon Load(const double* p) {
    return {vld1q_f64(p), vld1q_f64(p + 2), vld1q_f64(p + 4),
            vld1q_f64(p + 6)};
  }
  static V8Neon Broadcast(double s) {
    const float64x2_t b = vdupq_n_f64(s);
    return {b, b, b, b};
  }
  static V8Neon Add(const V8Neon& a, const V8Neon& b) {
    return {vaddq_f64(a.q0, b.q0), vaddq_f64(a.q1, b.q1),
            vaddq_f64(a.q2, b.q2), vaddq_f64(a.q3, b.q3)};
  }
  static V8Neon Sub(const V8Neon& a, const V8Neon& b) {
    return {vsubq_f64(a.q0, b.q0), vsubq_f64(a.q1, b.q1),
            vsubq_f64(a.q2, b.q2), vsubq_f64(a.q3, b.q3)};
  }
  static V8Neon Mul(const V8Neon& a, const V8Neon& b) {
    return {vmulq_f64(a.q0, b.q0), vmulq_f64(a.q1, b.q1),
            vmulq_f64(a.q2, b.q2), vmulq_f64(a.q3, b.q3)};
  }
  static void Store(const V8Neon& a, double* p) {
    vst1q_f64(p, a.q0);
    vst1q_f64(p + 2, a.q1);
    vst1q_f64(p + 4, a.q2);
    vst1q_f64(p + 6, a.q3);
  }
};

const KernelTable kTable = MakeTable<V8Neon>("neon", &Crc32cPortable);

}  // namespace

const KernelTable* GetNeonTable() { return &kTable; }

}  // namespace ektelo::simd

#else  // !defined(__aarch64__)

namespace ektelo::simd {
const KernelTable* GetNeonTable() { return nullptr; }
}  // namespace ektelo::simd

#endif
