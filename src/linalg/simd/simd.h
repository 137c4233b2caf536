// Runtime-dispatched SIMD kernel table for the blocked hot kernels and
// the wire-frame checksum (CRC32C).
//
// One binary carries every kernel target its architecture can express —
// scalar always, AVX2/AVX-512 on x86-64, NEON on AArch64 — and selects
// one KernelTable at startup from CPUID/HWCAP, overridable with the
// EKTELO_SIMD environment variable (scalar|avx2|avx512|neon).  The
// per-target translation units are the only code compiled with
// -mavx2/-mavx512f, so the selected entry points are the only paths that
// can execute target instructions; everything else in the binary stays
// baseline-ISA.
//
// Determinism contract: every table computes BITWISE-IDENTICAL results,
// on every input, to the scalar table.  Two rules make that possible:
//
//   1. Reductions run over fixed-width lanes with a defined reduction
//      tree.  A dot product accumulates into 8 virtual lanes
//      (acc[l] += a[8t+l] * b[8t+l], tail elements into lanes
//      j mod 8), then folds ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
//      AVX-512 holds the 8 lanes in one register, AVX2 in two, NEON in
//      four, scalar in eight doubles — same additions, same order.
//   2. Everything else vectorizes over *independent outputs* (RHS
//      columns, dense output rows), where lane width cannot change any
//      per-element floating-point sequence.
//
// All kernel TUs are compiled with -ffp-contract=off, so a*b+c is
// mul-then-add everywhere (no FMA contraction differences between
// targets), and the scalar TU additionally disables auto-vectorization
// so "scalar" means one lane per instruction — the honest roofline
// baseline the bench compares against.
//
// The crc32c entry is integer arithmetic, so its contract is plain
// equality: the x86 tables run the SSE4.2 crc32 instruction (implied by
// -mavx2/-mavx512f) and the scalar and NEON tables a portable
// slice-by-8 loop, and all return the same CRC32C of the same bytes.
//
// The floating-point table functions are serial range kernels: the
// blocked entry points in linalg/block.h and linalg/haar.h keep owning
// the ParallelFor sharding and call the active table per shard, so
// thread-count invariance and target invariance compose.
#ifndef EKTELO_LINALG_SIMD_SIMD_H_
#define EKTELO_LINALG_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ektelo::simd {

/// One dispatch target: serial range kernels over raw buffers.  All
/// pointers may be unaligned; x/y panels never alias.
struct KernelTable {
  const char* name;

  /// y[i, c] = dot(row i of a, column c of x) for rows [i0, i1), with the
  /// canonical 8-lane reduction tree.  a is row-major (m x n, stride n);
  /// x is column-major (n x k); y is column-major (m x k).
  void (*dense_matmat_rows)(const double* a, std::size_t m, std::size_t n,
                            const double* x, double* y, std::size_t k,
                            std::size_t i0, std::size_t i1);

  /// Transposed dense apply, output rows [j0, j1) of the (n x k)
  /// column-major y: zero-initializes its slice then accumulates over the
  /// rows of a in serial order (no reduction reorder).
  void (*dense_rmatmat_cols)(const double* a, std::size_t m, std::size_t n,
                             const double* x, double* y, std::size_t k,
                             std::size_t j0, std::size_t j1);

  /// CSR forward sweep over packed row-major panels: xr is (n x k)
  /// row-major, yr is (m x k) row-major and pre-zeroed; processes output
  /// rows [i0, i1).  Each nonzero updates its k lanes in serial p-order.
  void (*csr_matmat_rows)(const std::size_t* indptr,
                          const std::size_t* indices, const double* values,
                          const double* xr, double* yr, std::size_t k,
                          std::size_t i0, std::size_t i1);

  /// CSR transposed sweep, packed columns [c0, c1) of the row-major yr
  /// (n x k, pre-zeroed): replays the full nonzero sweep of the (m x n)
  /// matrix, updating only its own column range in serial order.
  void (*csr_rmatmat_cols)(const std::size_t* indptr,
                           const std::size_t* indices, const double* values,
                           std::size_t m, const double* xr, double* yr,
                           std::size_t k, std::size_t c0, std::size_t c1);

  /// Haar analysis / synthesis over a k-column column-major panel
  /// (n = power of two, stride n): the level folds are elementwise adds
  /// and subtracts, vectorized over columns.
  void (*haar_analysis_cols)(const double* x, double* y, std::size_t n,
                             std::size_t k);
  void (*haar_synthesis_cols)(const double* x, double* y, std::size_t n,
                              std::size_t k);

  /// CRC32C (Castagnoli; RFC 3720's iSCSI checksum) of n bytes: initial
  /// value and final xor 0xFFFFFFFF, so crc32c("123456789") ==
  /// 0xE3069283.  The wire frames' trailer (serve/protocol.h).
  uint32_t (*crc32c)(const uint8_t* data, std::size_t n);
};

/// The selected table.  First call resolves EKTELO_SIMD (unset or empty =
/// best available; an unavailable request warns on stderr and falls back
/// to the best available target); later calls return the cached choice.
const KernelTable& Active();

/// Override the active table (tests and the cross-target bench sweeps).
/// Must not be called while block kernels are in flight.
void SetActive(const KernelTable* table);

/// Reset to the startup selection (re-reads EKTELO_SIMD).
void ResetActive();

/// Targets compiled into this binary AND executable on this CPU, best
/// first.  Always contains at least the scalar table.
std::vector<const KernelTable*> AvailableTargets();

/// Find an available target by name ("scalar", "avx2", "avx512", "neon");
/// nullptr if it is not compiled in or the CPU cannot run it.
const KernelTable* FindTarget(const std::string& name);

// Per-target tables, nullptr when not compiled for this architecture
// (the CPU check is AvailableTargets'/FindTarget's job).
const KernelTable* GetScalarTable();  // never nullptr
const KernelTable* GetAvx2Table();
const KernelTable* GetAvx512Table();
const KernelTable* GetNeonTable();

}  // namespace ektelo::simd

#endif  // EKTELO_LINALG_SIMD_SIMD_H_
