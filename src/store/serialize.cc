#include "store/serialize.h"

#include <cstring>

namespace ektelo::store {

uint64_t Checksum64(const uint8_t* data, std::size_t n) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

void ByteWriter::F64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

bool ByteReader::U8(uint8_t* v) {
  if (!ok_ || end_ - p_ < 1) return Fail();
  *v = *p_++;
  return true;
}

bool ByteReader::U32(uint32_t* v) {
  if (!ok_ || end_ - p_ < 4) return Fail();
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= uint32_t(p_[i]) << (8 * i);
  p_ += 4;
  *v = out;
  return true;
}

bool ByteReader::U64(uint64_t* v) {
  if (!ok_ || end_ - p_ < 8) return Fail();
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out |= uint64_t(p_[i]) << (8 * i);
  p_ += 8;
  *v = out;
  return true;
}

bool ByteReader::F64(double* v) {
  uint64_t bits;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

// ------------------------------------------------------------ typed codecs

void SerializeVec(const Vec& v, ByteWriter* w) {
  w->U64(v.size());
  w->F64s(v);
}

bool DeserializeVec(ByteReader* r, Vec* v) {
  uint64_t n;
  if (!r->U64(&n)) return false;
  if (r->remaining() / 8 < n) return false;
  return r->F64s(std::size_t(n), v);
}

}  // namespace ektelo::store
