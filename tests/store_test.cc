// Byte framing shared by the budget ledger and the wire protocol:
// little-endian primitives, bit-exact vector round trips, rejection of
// truncated input, and the record checksum.
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "matrix/linop.h"
#include "store/serialize.h"
#include "util/rng.h"

namespace ektelo {
namespace {

using store::ByteReader;
using store::ByteWriter;

template <typename AllocA, typename AllocB>
bool BitEqual(const std::vector<double, AllocA>& a,
              const std::vector<double, AllocB>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ------------------------------------------------------------- serializers

TEST(SerializeTest, PrimitiveFramingIsLittleEndianAndBitExact) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0x01020304u);
  w.U64(0x1122334455667788ull);
  w.F64(-0.0);
  // Explicit little-endian layout: least-significant byte first.
  const std::vector<uint8_t>& b = w.bytes();
  ASSERT_EQ(b.size(), 1u + 4u + 8u + 8u);
  EXPECT_EQ(b[0], 0xAB);
  EXPECT_EQ(b[1], 0x04);
  EXPECT_EQ(b[2], 0x03);
  EXPECT_EQ(b[3], 0x02);
  EXPECT_EQ(b[4], 0x01);
  EXPECT_EQ(b[5], 0x88);
  EXPECT_EQ(b[12], 0x11);

  ByteReader r(b);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d;
  ASSERT_TRUE(r.U8(&u8));
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.U64(&u64));
  ASSERT_TRUE(r.F64(&d));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_TRUE(std::signbit(d));
  EXPECT_EQ(d, 0.0);
  EXPECT_EQ(r.remaining(), 0u);
  // Reads past the end fail and poison the reader.
  EXPECT_FALSE(r.U8(&u8));
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, SpecialDoublesRoundTripBitwise) {
  const double specials[] = {0.0, -0.0, 1.0, -1.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
  for (double v : specials) {
    ByteWriter w;
    w.F64(v);
    ByteReader r(w.bytes());
    double out;
    ASSERT_TRUE(r.F64(&out));
    EXPECT_TRUE(BitwiseEq(v, out));
  }
}

TEST(SerializeTest, FuzzRoundTripIsBitExact) {
  Rng rng(2026);
  for (int it = 0; it < 120; ++it) {
    Vec v(std::size_t(rng.UniformInt(0, 40)));
    for (auto& x : v) x = rng.Normal() * std::pow(10.0, rng.UniformInt(-4, 4));
    ByteWriter w;
    store::SerializeVec(v, &w);
    ByteReader r(w.bytes());
    Vec v2;
    ASSERT_TRUE(store::DeserializeVec(&r, &v2));
    EXPECT_TRUE(BitEqual(v, v2));
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(SerializeTest, TruncatedPayloadsAreRejectedNotCrashed) {
  Vec v(9);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.5 * double(i) - 1.0;
  ByteWriter w;
  store::SerializeVec(v, &w);
  const std::vector<uint8_t> full = w.bytes();
  for (std::size_t len = 0; len < full.size(); ++len) {
    ByteReader r(full.data(), len);
    Vec out;
    EXPECT_FALSE(store::DeserializeVec(&r, &out)) << "prefix " << len;
  }
  // An absurd length (allocation bomb) over a tiny buffer.
  ByteWriter bomb;
  bomb.U64(uint64_t(1) << 60);
  bomb.F64(1.0);
  ByteReader r(bomb.bytes());
  Vec out;
  EXPECT_FALSE(store::DeserializeVec(&r, &out));
}

TEST(SerializeTest, ChecksumDetectsBitFlips) {
  std::vector<uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 31);
  const uint64_t sum = store::Checksum64(data);
  for (std::size_t i = 0; i < data.size(); i += 17) {
    data[i] ^= 0x40;
    EXPECT_NE(store::Checksum64(data), sum);
    data[i] ^= 0x40;
  }
  EXPECT_EQ(store::Checksum64(data), sum);
}

}  // namespace
}  // namespace ektelo
