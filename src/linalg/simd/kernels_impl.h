// Target-generic kernel bodies, instantiated once per dispatch target.
//
// Each kernels_<target>.cc defines a V8 type — 8 double lanes with
// Zero/Load/Broadcast/Add/Sub/Mul/Store — and instantiates MakeTable<V8>.
// Because every V8 performs the same lane-wise IEEE-754 operations in the
// same order (all TUs are compiled with -ffp-contract=off, so no target
// fuses a*b+c), the instantiations are bitwise-interchangeable: the lane
// semantics below are THE definition of every kernel's result, and the
// scalar V8 executes it literally.
//
// Tail policy: loops advance 8 lanes at a time while a full group fits,
// then finish element-wise — a trailing group of t < 8 elements lands in
// lanes 0..t-1 and the remaining lanes receive no addition (not a +0.0,
// which could flip a -0.0 accumulator).  No kernel ever reads or writes
// past the logical extent of a buffer, so callers may pass interior
// pointers at any alignment.
#ifndef EKTELO_LINALG_SIMD_KERNELS_IMPL_H_
#define EKTELO_LINALG_SIMD_KERNELS_IMPL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

#include "linalg/simd/simd.h"
#include "util/aligned.h"

namespace ektelo::simd {

inline constexpr std::size_t kLanes = 8;

// Every function here that is not a template over the TU's V8 (whose
// instantiations already have internal linkage: each V8 lives in its TU's
// unnamed namespace) sits in an unnamed namespace too.  The TUs are
// compiled with different -m flags, and an external-linkage inline copy
// would let the linker keep one target's code for all of them — at -O0,
// the AVX-512 copy inside the scalar table.
namespace {
/// The canonical 8-lane reduction tree over a spilled accumulator group.
inline double ReduceTree(const double* l) {
  const double s01 = l[0] + l[1], s23 = l[2] + l[3];
  const double s45 = l[4] + l[5], s67 = l[6] + l[7];
  return (s01 + s23) + (s45 + s67);
}
}  // namespace

/// dot(r, x) over n elements with 8-lane accumulation + the canonical
/// reduction tree.  This is the ONLY kernel whose result differs from a
/// strictly serial left-to-right sum; every dispatch target (scalar
/// included) executes exactly this lane order.
template <class V8>
inline double Dot8(const double* r, const double* x, std::size_t n) {
  V8 acc = V8::Zero();
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    acc = V8::Add(acc, V8::Mul(V8::Load(r + j), V8::Load(x + j)));
  alignas(kCachelineBytes) double lanes[kLanes];
  V8::Store(acc, lanes);
  for (std::size_t l = 0; j < n; ++j, ++l) lanes[l] += r[j] * x[j];
  return ReduceTree(lanes);
}

template <class V8>
void DenseMatmatRowsImpl(const double* a, std::size_t m, std::size_t n,
                         const double* x, double* y, std::size_t k,
                         std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const double* row = a + i * n;
    std::size_t c = 0;
    // Four columns at a time so each row vector is loaded once per four
    // dot products; the four accumulator groups are independent, so each
    // column's result is bit-for-bit the Dot8 of that column.
    for (; c + 4 <= k; c += 4) {
      const double* x0 = x + c * n;
      const double* x1 = x + (c + 1) * n;
      const double* x2 = x + (c + 2) * n;
      const double* x3 = x + (c + 3) * n;
      V8 a0 = V8::Zero(), a1 = V8::Zero(), a2 = V8::Zero(), a3 = V8::Zero();
      std::size_t j = 0;
      for (; j + kLanes <= n; j += kLanes) {
        const V8 r = V8::Load(row + j);
        a0 = V8::Add(a0, V8::Mul(r, V8::Load(x0 + j)));
        a1 = V8::Add(a1, V8::Mul(r, V8::Load(x1 + j)));
        a2 = V8::Add(a2, V8::Mul(r, V8::Load(x2 + j)));
        a3 = V8::Add(a3, V8::Mul(r, V8::Load(x3 + j)));
      }
      alignas(kCachelineBytes) double l0[kLanes], l1[kLanes], l2[kLanes],
          l3[kLanes];
      V8::Store(a0, l0);
      V8::Store(a1, l1);
      V8::Store(a2, l2);
      V8::Store(a3, l3);
      for (std::size_t l = 0; j < n; ++j, ++l) {
        const double r = row[j];
        l0[l] += r * x0[j];
        l1[l] += r * x1[j];
        l2[l] += r * x2[j];
        l3[l] += r * x3[j];
      }
      y[c * m + i] = ReduceTree(l0);
      y[(c + 1) * m + i] = ReduceTree(l1);
      y[(c + 2) * m + i] = ReduceTree(l2);
      y[(c + 3) * m + i] = ReduceTree(l3);
    }
    for (; c < k; ++c) y[c * m + i] = Dot8<V8>(row, x + c * n, n);
  }
}

template <class V8>
void DenseRmatMatColsImpl(const double* a, std::size_t m, std::size_t n,
                          const double* x, double* y, std::size_t k,
                          std::size_t j0, std::size_t j1) {
  for (std::size_t c = 0; c < k; ++c)
    std::fill(y + c * n + j0, y + c * n + j1, 0.0);
  // Accumulates y[c, j] += x[c, i] * a[i, j] over i in serial order; the
  // j loop touches independent outputs, so vectorizing it cannot change
  // any element's FP sequence.
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a + i * n;
    for (std::size_t c = 0; c < k; ++c) {
      const double xi = x[c * m + i];
      if (xi == 0.0) continue;
      double* yc = y + c * n;
      const V8 bx = V8::Broadcast(xi);
      std::size_t j = j0;
      for (; j + kLanes <= j1; j += kLanes)
        V8::Store(V8::Add(V8::Load(yc + j), V8::Mul(bx, V8::Load(row + j))),
                  yc + j);
      for (; j < j1; ++j) yc[j] += xi * row[j];
    }
  }
}

template <class V8>
void CsrMatmatRowsImpl(const std::size_t* indptr, const std::size_t* indices,
                       const double* values, const double* xr, double* yr,
                       std::size_t k, std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    double* yrow = yr + i * k;
    for (std::size_t p = indptr[i]; p < indptr[i + 1]; ++p) {
      const double* xrow = xr + indices[p] * k;
      const V8 bv = V8::Broadcast(values[p]);
      std::size_t c = 0;
      for (; c + kLanes <= k; c += kLanes)
        V8::Store(
            V8::Add(V8::Load(yrow + c), V8::Mul(bv, V8::Load(xrow + c))),
            yrow + c);
      for (; c < k; ++c) yrow[c] += values[p] * xrow[c];
    }
  }
}

template <class V8>
void CsrRmatMatColsImpl(const std::size_t* indptr, const std::size_t* indices,
                        const double* values, std::size_t m, const double* xr,
                        double* yr, std::size_t k, std::size_t c0,
                        std::size_t c1) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* xrow = xr + i * k;
    for (std::size_t p = indptr[i]; p < indptr[i + 1]; ++p) {
      double* yrow = yr + indices[p] * k;
      const double v = values[p];
      const V8 bv = V8::Broadcast(v);
      std::size_t c = c0;
      for (; c + kLanes <= c1; c += kLanes)
        V8::Store(
            V8::Add(V8::Load(yrow + c), V8::Mul(bv, V8::Load(xrow + c))),
            yrow + c);
      for (; c < c1; ++c) yrow[c] += v * xrow[c];
    }
  }
}

namespace impl_detail {

namespace {
inline std::size_t Log2(std::size_t n) {
  std::size_t k = 0;
  while ((std::size_t{1} << k) < n) ++k;
  return k;
}
}  // namespace

/// Elementwise z[c] = a[c] + b[c], w[c] = a[c] - b[c] over k contiguous
/// values: the Haar butterfly, vectorized over columns.
template <class V8>
inline void AddSub(const double* a, const double* b, double* z, double* w,
                   std::size_t k) {
  std::size_t c = 0;
  for (; c + kLanes <= k; c += kLanes) {
    const V8 va = V8::Load(a + c);
    const V8 vb = V8::Load(b + c);
    V8::Store(V8::Add(va, vb), z + c);
    V8::Store(V8::Sub(va, vb), w + c);
  }
  for (; c < k; ++c) {
    z[c] = a[c] + b[c];
    w[c] = a[c] - b[c];
  }
}

}  // namespace impl_detail

template <class V8>
void HaarAnalysisColsImpl(const double* x, double* y, std::size_t n,
                          std::size_t k) {
  if (n == 1) {
    for (std::size_t c = 0; c < k; ++c) y[c] = x[c];
    return;
  }
  const std::size_t levels = impl_detail::Log2(n);
  // Work in row-major packing (k contiguous values per block) so every
  // butterfly is a unit-stride sweep; results land packed in yr and are
  // unpacked once.  The arithmetic per element is identical to the
  // column-at-a-time fold — only data movement changes.
  AlignedVec cur(n * k), nxt, yr(n * k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c) cur[i * k + c] = x[c * n + i];
  for (std::size_t j = levels; j-- > 0;) {
    const std::size_t blocks = std::size_t{1} << j;
    nxt.assign(blocks * k, 0.0);
    for (std::size_t b = 0; b < blocks; ++b)
      impl_detail::AddSub<V8>(&cur[(2 * b) * k], &cur[(2 * b + 1) * k],
                              &nxt[b * k], &yr[(blocks + b) * k], k);
    cur.swap(nxt);
  }
  std::copy(cur.begin(), cur.begin() + k, yr.begin());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c) y[c * n + i] = yr[i * k + c];
}

template <class V8>
void HaarSynthesisColsImpl(const double* x, double* y, std::size_t n,
                           std::size_t k) {
  if (n == 1) {
    for (std::size_t c = 0; c < k; ++c) y[c] = x[c];
    return;
  }
  const std::size_t levels = impl_detail::Log2(n);
  // Pack the coefficient panel row-major so each level's per-block
  // coefficients are contiguous across columns.
  AlignedVec xr(n * k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c) xr[i * k + c] = x[c * n + i];
  AlignedVec cur(xr.begin(), xr.begin() + k), nxt;
  for (std::size_t j = 0; j < levels; ++j) {
    const std::size_t blocks = std::size_t{1} << j;
    nxt.assign(blocks * 2 * k, 0.0);
    for (std::size_t b = 0; b < blocks; ++b)
      impl_detail::AddSub<V8>(&cur[b * k], &xr[(blocks + b) * k],
                              &nxt[(2 * b) * k], &nxt[(2 * b + 1) * k], k);
    cur.swap(nxt);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c) y[c * n + i] = cur[i * k + c];
}

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78, initial value
/// and final xor 0xFFFFFFFF) with a portable slice-by-8 table.  Defined
/// in the scalar TU, which is compiled for the baseline ISA, so the
/// scalar and NEON tables can share it.
uint32_t Crc32cPortable(const uint8_t* data, std::size_t n);

#if defined(__SSE4_2__)
namespace {
/// The same CRC32C on the SSE4.2 crc32 instruction, 8 bytes per step.
/// Internal linkage on purpose: the AVX2 and AVX-512 TUs each get their
/// own copy, so the linker cannot fold one target's code into the other.
uint32_t Crc32cSse42(const uint8_t* data, std::size_t n) {
  uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t c = uint32_t(crc);
  for (; n > 0; ++data, --n) c = _mm_crc32_u8(c, *data);
  return ~c;
}
}  // namespace
#endif

template <class V8>
KernelTable MakeTable(const char* name,
                      uint32_t (*crc32c)(const uint8_t*, std::size_t)) {
  return KernelTable{name,
                     &DenseMatmatRowsImpl<V8>,
                     &DenseRmatMatColsImpl<V8>,
                     &CsrMatmatRowsImpl<V8>,
                     &CsrRmatMatColsImpl<V8>,
                     &HaarAnalysisColsImpl<V8>,
                     &HaarSynthesisColsImpl<V8>,
                     crc32c};
}

}  // namespace ektelo::simd

#endif  // EKTELO_LINALG_SIMD_KERNELS_IMPL_H_
