// Tag+payload tree codec (store/tree_codec.h): per-kind round-trip with
// re-encode byte identity (the determinism the disk tier's checksums and
// the root-hash integrity check both rely on), fail-closed behavior on
// unknown operator subclasses and over-deep trees, and rejection of
// truncated, corrupted, or hash-tampered payloads without crashing.
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/linop.h"
#include "matrix/range_ops.h"
#include "store/serialize.h"
#include "store/tree_codec.h"
#include "util/rng.h"

namespace ektelo {
namespace {

using store::ByteReader;
using store::ByteWriter;

CsrMatrix SmallCsr() {
  std::vector<Triplet> t = {{0, 0, 1.5}, {0, 3, -2.0}, {1, 1, 0.25},
                            {2, 0, 4.0}, {3, 2, -0.125}};
  return CsrMatrix::FromTriplets(4, 4, std::move(t));
}

std::vector<uint8_t> MustEncode(const LinOp& op) {
  ByteWriter w;
  EXPECT_TRUE(store::EncodeLinOpTree(op, &w)) << op.DebugName();
  return w.Take();
}

/// Encode -> decode -> re-encode: the decoded tree must be structurally
/// identical and must serialize to byte-identical output.
void ExpectRoundTrip(const LinOpPtr& op) {
  SCOPED_TRACE(op->DebugName());
  const std::vector<uint8_t> bytes = MustEncode(*op);
  ByteReader r(bytes);
  LinOpPtr back = store::DecodeLinOpTree(&r);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(back->rows(), op->rows());
  EXPECT_EQ(back->cols(), op->cols());
  EXPECT_EQ(back->StructuralHash(), op->StructuralHash());
  EXPECT_TRUE(back->StructuralEq(*op));
  const std::vector<uint8_t> again = MustEncode(*back);
  ASSERT_EQ(again.size(), bytes.size());
  EXPECT_EQ(std::memcmp(again.data(), bytes.data(), bytes.size()), 0);
}

/// A composite covering every combinator in one tree.
LinOpPtr CompositeTree() {
  // Transpose child has rows 4 so the transpose's cols match the stack.
  DenseMatrix d(4, 2);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 2; ++j) d.At(i, j) = 0.5 * double(i) - double(j);
  Vec w(4);
  for (std::size_t i = 0; i < 4; ++i) w[i] = 1.0 + 0.25 * double(i);
  return MakeVStack(
      {MakeScaled(MakeProduct(MakeSparse(SmallCsr()), MakeWaveletOp(4)), 0.75),
       MakeRowWeight(MakeRangeSetOp({{0, 1}, {1, 3}, {0, 3}, {2, 2}}, 4),
                     std::move(w)),
       MakeTranspose(MakeHStack({MakeDense(std::move(d)),
                                 MakeKronecker(MakeIdentityOp(2),
                                               MakeOnesOp(2, 2))}))});
}

// ------------------------------------------------------------ round trips

TEST(TreeCodecTest, EveryKindRoundTripsBitExactly) {
  DenseMatrix d(3, 4);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) d.At(i, j) = double(i * 4 + j) - 5.5;
  const std::vector<LinOpPtr> ops = {
      MakeDense(std::move(d)),
      MakeSparse(SmallCsr()),
      MakeIdentityOp(8),
      MakeOnesOp(3, 5),
      MakePrefixOp(8),
      MakeSuffixOp(8),
      MakeWaveletOp(8),
      MakeRangeSetOp({{0, 3}, {2, 7}, {5, 5}}, 8),
      MakeRectangleSetOp({{0, 2, 1, 3}, {1, 1, 0, 0}}, 4, 4),
      MakeTranspose(MakeRangeSetOp({{0, 6}}, 8)),
      MakeScaled(MakePrefixOp(8), -2.5),
      MakeRowWeight(MakeIdentityOp(4), Vec{1.0, 0.5, -3.0, 2.0}),
      MakeProduct(MakeSparse(SmallCsr()), MakePrefixOp(4)),
      MakeProduct(MakeIdentityOp(4), MakeIdentityOp(4),
                  /*binary_hint=*/true),
      MakeKronecker(MakeIdentityOp(2), MakePrefixOp(4)),
      MakeVStack({MakePrefixOp(8), MakeIdentityOp(8)}),
      MakeHStack({MakeIdentityOp(4), MakeOnesOp(4, 4)}),
      MakeSum({MakeIdentityOp(4), MakeScaled(MakeIdentityOp(4), 2.0)}),
      MakePrefixOp(8)->Gram(),
      CompositeTree(),
  };
  for (const LinOpPtr& op : ops) ExpectRoundTrip(op);
}

TEST(TreeCodecTest, DecodedTreeComputesTheSameMatrix) {
  LinOpPtr op = CompositeTree();
  const std::vector<uint8_t> bytes = MustEncode(*op);
  ByteReader r(bytes);
  LinOpPtr back = store::DecodeLinOpTree(&r);
  ASSERT_NE(back, nullptr);
  Rng rng(99);
  Vec x(op->cols());
  for (auto& v : x) v = rng.Normal();
  const Vec ya = op->Apply(x);
  const Vec yb = back->Apply(x);
  ASSERT_EQ(ya.size(), yb.size());
  // Same tree, same traversal: bitwise-identical applies.
  EXPECT_EQ(std::memcmp(ya.data(), yb.data(), ya.size() * sizeof(double)), 0);
}

// ------------------------------------------------------------ fail closed

TEST(TreeCodecTest, UnknownSubclassFailsClosed) {
  class MysteryOp final : public LinOp {
   public:
    MysteryOp() : LinOp(4, 4) {}
    void ApplyRaw(const double*, double*) const override {}
    void ApplyTRaw(const double*, double*) const override {}
    std::string DebugName() const override { return "Mystery"; }
  };
  MysteryOp op;
  ByteWriter w;
  EXPECT_FALSE(store::EncodeLinOpTree(op, &w));
  // ...including one buried inside an otherwise encodable tree.
  LinOpPtr wrapped = MakeScaled(std::make_shared<MysteryOp>(), 2.0);
  ByteWriter w2;
  EXPECT_FALSE(store::EncodeLinOpTree(*wrapped, &w2));
}

TEST(TreeCodecTest, OverDeepTreeFailsClosed) {
  LinOpPtr op = MakeIdentityOp(2);
  for (int i = 0; i < 80; ++i) op = MakeScaled(op, 2.0);  // > kMaxDepth
  ByteWriter w;
  EXPECT_FALSE(store::EncodeLinOpTree(*op, &w));
}

// ------------------------------------------------------------- integrity

TEST(TreeCodecTest, TamperedRootHashIsRejected) {
  std::vector<uint8_t> bytes = MustEncode(*MakePrefixOp(16));
  ASSERT_GT(bytes.size(), 8u);
  bytes[3] ^= 0x40;  // inside the leading root-hash field
  ByteReader r(bytes);
  EXPECT_EQ(store::DecodeLinOpTree(&r), nullptr);
}

TEST(TreeCodecTest, EveryTruncationIsRejectedWithoutCrashing) {
  const std::vector<uint8_t> bytes = MustEncode(*CompositeTree());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(bytes.data(), len);
    EXPECT_EQ(store::DecodeLinOpTree(&r), nullptr) << "prefix len " << len;
  }
}

TEST(TreeCodecTest, SingleByteCorruptionNeverYieldsAWrongTree) {
  LinOpPtr op = CompositeTree();
  const std::vector<uint8_t> bytes = MustEncode(*op);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> bad = bytes;
    bad[i] ^= 0x5A;
    ByteReader r(bad);
    LinOpPtr back = store::DecodeLinOpTree(&r);
    // The root-hash check makes every flip either unparseable or, at
    // minimum, detectably a different tree — a successful decode must
    // be structurally identical to the original (e.g. a flip in
    // trailing slack would be; the codec has none today).
    if (back != nullptr) {
      EXPECT_TRUE(back->StructuralEq(*op)) << "byte " << i;
    }
  }
}

}  // namespace
}  // namespace ektelo
