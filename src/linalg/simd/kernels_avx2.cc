// AVX2 dispatch target: the 8 virtual lanes live in two 256-bit
// registers (lanes 0-3 and 4-7).  Loads are unaligned (vmovupd); adds
// and multiplies are plain IEEE vector ops, never FMA (the TU is built
// with -ffp-contract=off), so each lane computes bit-for-bit what the
// scalar table computes.
//
// This file is compiled with -mavx2 on x86-64 only; elsewhere it
// degrades to a stub returning nullptr so the dispatcher skips it.
#include "linalg/simd/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "linalg/simd/kernels_impl.h"

namespace ektelo::simd {

namespace {

struct V8Avx2 {
  __m256d lo, hi;

  static V8Avx2 Zero() {
    return {_mm256_setzero_pd(), _mm256_setzero_pd()};
  }
  static V8Avx2 Load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  static V8Avx2 Broadcast(double s) {
    return {_mm256_set1_pd(s), _mm256_set1_pd(s)};
  }
  static V8Avx2 Add(const V8Avx2& a, const V8Avx2& b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  static V8Avx2 Sub(const V8Avx2& a, const V8Avx2& b) {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  static V8Avx2 Mul(const V8Avx2& a, const V8Avx2& b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  static void Store(const V8Avx2& a, double* p) {
    _mm256_storeu_pd(p, a.lo);
    _mm256_storeu_pd(p + 4, a.hi);
  }
};

const KernelTable kTable = MakeTable<V8Avx2>("avx2", &Crc32cSse42);

}  // namespace

const KernelTable* GetAvx2Table() { return &kTable; }

}  // namespace ektelo::simd

#else  // !defined(__AVX2__)

namespace ektelo::simd {
const KernelTable* GetAvx2Table() { return nullptr; }
}  // namespace ektelo::simd

#endif
