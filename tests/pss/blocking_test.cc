#include "pss/blocking.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"

namespace dpss::pss {
namespace {

std::string hexOf(const crypto::Bigint& v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : v.toBytes()) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

/// The block's value as exactly `width` big-endian bytes.
std::string bigEndianBytes(const crypto::Bigint& v, std::size_t width) {
  const std::string bytes = v.toBytes();
  return std::string(width - bytes.size(), '\0') + bytes;
}

/// The frame encode() cuts into blocks: [varint len][bytes][u32 fnv].
std::string frameOf(std::string_view payload) {
  ByteWriter w;
  w.varint(payload.size());
  w.raw(payload);
  w.u32(static_cast<std::uint32_t>(fnv1a(payload) & 0xffffffffu));
  return w.take();
}

std::string randomBytes(Rng& rng, std::size_t len) {
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.next() & 0xff));
  }
  return out;
}

TEST(BlockCodec, SingleBlockRoundTrip) {
  BlockCodec codec(16);
  const std::string payload = "hello";
  const auto blocks = codec.encode(payload, 1);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(codec.decode(blocks), payload);
}

TEST(BlockCodec, EmptyPayload) {
  BlockCodec codec(16);
  EXPECT_EQ(codec.decode(codec.encode("", 1)), "");
}

TEST(BlockCodec, MultiBlockRoundTrip) {
  BlockCodec codec(16);
  const std::string payload(100, 'x');
  const std::size_t blocks = codec.blockCount(payload.size());
  EXPECT_GT(blocks, 1u);
  EXPECT_EQ(codec.decode(codec.encode(payload, blocks)), payload);
}

TEST(BlockCodec, BinaryPayloadWithNulsAndHighBytes) {
  BlockCodec codec(16);
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  const std::size_t blocks = codec.blockCount(payload.size());
  EXPECT_EQ(codec.decode(codec.encode(payload, blocks)), payload);
}

TEST(BlockCodec, PaddingToExtraBlocksStillDecodes) {
  BlockCodec codec(16);
  const auto blocks = codec.encode("short", 10);
  ASSERT_EQ(blocks.size(), 10u);
  EXPECT_EQ(codec.decode(blocks), "short");
}

TEST(BlockCodec, PayloadTooLargeThrows) {
  BlockCodec codec(16);
  EXPECT_THROW(codec.encode(std::string(1000, 'a'), 1), InvalidArgument);
}

TEST(BlockCodec, CorruptBlockFailsChecksum) {
  BlockCodec codec(16);
  auto blocks = codec.encode("important data", 2);
  blocks[0] += crypto::Bigint(1);
  EXPECT_THROW(codec.decode(blocks), CorruptData);
}

TEST(BlockCodec, GarbageBlocksRejected) {
  // Random blocks (a collided OS05 slot) must virtually never decode.
  BlockCodec codec(16);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<crypto::Bigint> garbage;
    for (int b = 0; b < 3; ++b) {
      garbage.push_back(crypto::Bigint::randomBits(rng, 120));
    }
    EXPECT_THROW(codec.decode(garbage), CorruptData);
  }
}

TEST(BlockCodec, BlockValuesFitWidth) {
  BlockCodec codec(8);
  const auto blocks = codec.encode(std::string(50, '\xff'), 8);
  for (const auto& b : blocks) EXPECT_LE(b.bitLength(), 64u);
}

TEST(BlockCodec, LittleEndianKnownAnswer) {
  // Frame of "abc": varint 03, 61 62 63, fnv1a("abc") & 0xffffffff =
  // 0x0541574b as u32 LE (4b 57 41 05), then 8 zero bytes of padding.
  // Read little-endian, the frame's last byte is the most significant
  // and the padding vanishes.
  BlockCodec codec(16);
  const auto blocks = codec.encode("abc", 1);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(hexOf(blocks[0]), "0541574b63626103");
  EXPECT_EQ(codec.decode(blocks), "abc");
}

TEST(BlockCodec, OneBlockValueCostsOnlyItsFrameBits) {
  // The fold's exponent is the block: it must be no wider than the frame
  // bytes it carries, whatever the block width.
  Rng rng(11);
  for (const std::size_t width : {8u, 31u, 63u}) {
    BlockCodec codec(width);
    for (std::size_t len = 0; codec.blockCount(len) == 1; ++len) {
      const std::string payload = randomBytes(rng, len);
      const auto blocks = codec.encode(payload, 1);
      ASSERT_EQ(blocks.size(), 1u);
      EXPECT_LE(blocks[0].bitLength(), 8 * frameOf(payload).size())
          << "width " << width << ", len " << len;
      EXPECT_EQ(codec.decode(blocks), payload);
    }
  }
}

TEST(BlockCodec, FullBlocksAreTheBigEndianBlocksReversed) {
  // Only the layout inside a block changed: every block but the last
  // holds the same frame bytes as a big-endian cut, in reverse order.
  Rng rng(13);
  for (const std::size_t width : {8u, 16u, 31u}) {
    BlockCodec codec(width);
    for (const std::size_t len : {40u, 100u, 257u}) {
      const std::string payload = randomBytes(rng, len);
      const std::size_t count = codec.blockCount(len);
      ASSERT_GT(count, 1u);
      const auto blocks = codec.encode(payload, count);
      const std::string frame = frameOf(payload);
      for (std::size_t b = 0; b + 1 < count; ++b) {
        std::string bytes = bigEndianBytes(blocks[b], width);
        std::reverse(bytes.begin(), bytes.end());
        EXPECT_EQ(bytes, frame.substr(b * width, width))
            << "width " << width << ", len " << len << ", block " << b;
      }
    }
  }
}

TEST(BlockCodec, RejectsTinyWidth) {
  EXPECT_THROW(BlockCodec(4), InternalError);
}

TEST(BlockCodec, MaxBlockBytesLeavesHeadroom) {
  // 2^(8·maxBlockBytes) must stay below 2^(modulusBits - 1) <= n.
  EXPECT_EQ(BlockCodec::maxBlockBytesFor(256), 31u);
  EXPECT_EQ(BlockCodec::maxBlockBytesFor(257), 32u);
}

TEST(BlockCodec, FuzzRoundTrip) {
  BlockCodec codec(24);
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t len = rng.below(300);
    const std::string payload = randomBytes(rng, len);
    const std::size_t blocks = codec.blockCount(len);
    ASSERT_EQ(codec.decode(codec.encode(payload, blocks)), payload);
  }
}

}  // namespace
}  // namespace dpss::pss
