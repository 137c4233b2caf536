// AVX-512 dispatch target: the 8 virtual lanes are exactly one 512-bit
// register, so the virtual lane model is native width here.  Unaligned
// loads, no FMA (built with -ffp-contract=off), no masked tail tricks —
// tails run scalar in the shared templates, keeping every lane's FP
// sequence identical to the scalar table.
//
// Compiled with -mavx512f on x86-64 only; stubbed to nullptr elsewhere.
#include "linalg/simd/simd.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "linalg/simd/kernels_impl.h"

namespace ektelo::simd {

namespace {

struct V8Avx512 {
  __m512d z;

  static V8Avx512 Zero() { return {_mm512_setzero_pd()}; }
  static V8Avx512 Load(const double* p) { return {_mm512_loadu_pd(p)}; }
  static V8Avx512 Broadcast(double s) { return {_mm512_set1_pd(s)}; }
  static V8Avx512 Add(const V8Avx512& a, const V8Avx512& b) {
    return {_mm512_add_pd(a.z, b.z)};
  }
  static V8Avx512 Sub(const V8Avx512& a, const V8Avx512& b) {
    return {_mm512_sub_pd(a.z, b.z)};
  }
  static V8Avx512 Mul(const V8Avx512& a, const V8Avx512& b) {
    return {_mm512_mul_pd(a.z, b.z)};
  }
  static void Store(const V8Avx512& a, double* p) {
    _mm512_storeu_pd(p, a.z);
  }
};

const KernelTable kTable = MakeTable<V8Avx512>("avx512", &Crc32cSse42);

}  // namespace

const KernelTable* GetAvx512Table() { return &kTable; }

}  // namespace ektelo::simd

#else  // !defined(__AVX512F__)

namespace ektelo::simd {
const KernelTable* GetAvx512Table() { return nullptr; }
}  // namespace ektelo::simd

#endif
