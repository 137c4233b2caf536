// Versioned little-endian binary framing shared by the budget ledger's
// records and the serving daemon's wire protocol.  Byte layout is
// explicit and platform-independent:
//
//   * every integer is framed little-endian, byte by byte (no memcpy of
//     host-endian words), so bytes written on any machine read back on
//     any other;
//   * doubles are framed by IEEE-754 bit pattern (as a little-endian
//     uint64), so round-trips are bit-exact — NaN payloads, -0.0 and
//     denormals included;
//   * kFormatVersion stamps every ledger file; a layout change bumps it
//     and cleanly rejects old files instead of misreading them.
//
// Readers are defensive: every read is bounds-checked against the
// buffer, and allocation sizes are validated against the bytes actually
// present before resizing — a truncated or corrupted payload yields
// `false`, never a crash or an aborted CHECK.  Whole-record integrity
// (bit flips that keep the structure plausible) is the framing's job:
// Checksum64 for ledger records, CRC32C for wire frames
// (serve/protocol.h).
#ifndef EKTELO_STORE_SERIALIZE_H_
#define EKTELO_STORE_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/vec.h"

namespace ektelo::store {

/// Bumped whenever the byte layout of any payload or frame changes.
/// Ledger files written under a different format version are rejected
/// on open, never reinterpreted.
inline constexpr uint32_t kFormatVersion = 1;

/// 64-bit FNV-1a over a byte range: the ledger's per-record integrity
/// checksum, and the content hash of requests and estimates.  Not
/// cryptographic — it guards against torn writes, truncation and random
/// corruption, not an adversary with write access to the ledger
/// directory.
uint64_t Checksum64(const uint8_t* data, std::size_t n);
inline uint64_t Checksum64(const std::vector<uint8_t>& bytes) {
  return Checksum64(bytes.data(), bytes.size());
}

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(uint8_t(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(uint8_t(v >> (8 * i)));
  }
  void F64(double v);
  /// Accepts any std::vector<double, Alloc> (plain or AlignedVec).
  template <typename Alloc>
  void F64s(const std::vector<double, Alloc>& vs) {
    for (double v : vs) F64(v);
  }
  /// Appends raw bytes verbatim (already-framed sub-buffers).
  void Raw(const uint8_t* data, std::size_t n) {
    out_.insert(out_.end(), data, data + n);
  }

  const std::vector<uint8_t>& bytes() const { return out_; }
  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  std::vector<uint8_t> out_;
};

/// Bounds-checked little-endian reader over a borrowed byte range.  All
/// getters return false (and poison the reader) on underflow; `ok()`
/// reports whether every read so far succeeded.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, std::size_t n) : p_(data), end_(data + n) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool F64(double* v);
  /// Reads `count` doubles; fails without allocating when the buffer
  /// cannot possibly hold them.  Accepts any std::vector<double, Alloc>.
  template <typename Alloc>
  bool F64s(std::size_t count, std::vector<double, Alloc>* vs) {
    if (!ok() || remaining() / 8 < count) return Fail();
    vs->resize(count);
    for (std::size_t i = 0; i < count; ++i)
      if (!F64(&(*vs)[i])) return false;
    return true;
  }

  std::size_t remaining() const { return std::size_t(end_ - p_); }
  bool ok() const { return ok_; }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }
  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

/// A self-delimiting vector payload (length, then the doubles); the
/// reader consumes exactly that payload and reports false on any
/// truncation or allocation-bomb length.  Round-trips are bit-exact.
void SerializeVec(const Vec& v, ByteWriter* w);
bool DeserializeVec(ByteReader* r, Vec* v);

}  // namespace ektelo::store

#endif  // EKTELO_STORE_SERIALIZE_H_
