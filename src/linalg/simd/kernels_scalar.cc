// Scalar dispatch target: the reference semantics of every kernel.
//
// V8 here is eight plain doubles, so the lane operations the templates
// express become eight scalar IEEE operations in lane order.  This TU is
// compiled with -ffp-contract=off AND with auto-vectorization disabled
// (see CMakeLists.txt): "scalar" genuinely executes one lane per
// instruction, making it both the portable fallback on any CPU and the
// honest baseline for the roofline rows in bench/parallel_scaling.
//
// It also defines the portable CRC32C shared with the NEON table.
#include "linalg/simd/kernels_impl.h"

namespace ektelo::simd {

namespace {

/// Slice-by-8 tables: t[0] is the classic byte-at-a-time table, and
/// t[s][b] advances t[s-1][b] by one more zero byte, so eight table
/// lookups fold eight input bytes at once.
struct Crc32cTables {
  uint32_t t[8][256];
};

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables r{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));
    r.t[0][i] = c;
  }
  for (int s = 1; s < 8; ++s)
    for (uint32_t i = 0; i < 256; ++i)
      r.t[s][i] = (r.t[s - 1][i] >> 8) ^ r.t[0][r.t[s - 1][i] & 0xFF];
  return r;
}

constexpr Crc32cTables kCrc = MakeCrc32cTables();

/// Little-endian 32-bit load, independent of host byte order.
uint32_t Le32(const uint8_t* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

struct V8Scalar {
  double v[8];

  static V8Scalar Zero() {
    V8Scalar r;
    for (int l = 0; l < 8; ++l) r.v[l] = 0.0;
    return r;
  }
  static V8Scalar Load(const double* p) {
    V8Scalar r;
    for (int l = 0; l < 8; ++l) r.v[l] = p[l];
    return r;
  }
  static V8Scalar Broadcast(double s) {
    V8Scalar r;
    for (int l = 0; l < 8; ++l) r.v[l] = s;
    return r;
  }
  static V8Scalar Add(const V8Scalar& a, const V8Scalar& b) {
    V8Scalar r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  static V8Scalar Sub(const V8Scalar& a, const V8Scalar& b) {
    V8Scalar r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  static V8Scalar Mul(const V8Scalar& a, const V8Scalar& b) {
    V8Scalar r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  static void Store(const V8Scalar& a, double* p) {
    for (int l = 0; l < 8; ++l) p[l] = a.v[l];
  }
};

const KernelTable kTable = MakeTable<V8Scalar>("scalar", &Crc32cPortable);

}  // namespace

uint32_t Crc32cPortable(const uint8_t* data, std::size_t n) {
  const auto& t = kCrc.t;
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = c ^ Le32(data);
    const uint32_t hi = Le32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) c = (c >> 8) ^ t[0][(c ^ *data) & 0xFF];
  return ~c;
}

const KernelTable* GetScalarTable() { return &kTable; }

}  // namespace ektelo::simd
