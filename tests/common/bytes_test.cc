#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace dpss {
namespace {

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintBoundaries) {
  const std::vector<std::uint64_t> values = {
      0, 1, 127, 128, 16383, 16384, 0xffffffffULL,
      std::numeric_limits<std::uint64_t>::max()};
  ByteWriter w;
  for (const auto v : values) w.varint(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, SignedVarintRoundTrip) {
  const std::vector<std::int64_t> values = {
      0, -1, 1, -64, 63, -65, 64,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  ByteWriter w;
  for (const auto v : values) w.svarint(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.svarint(), v);
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("");
  w.str("hello");
  w.str(std::string(1000, 'x'));
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
}

TEST(Bytes, RawRoundTrip) {
  ByteWriter w;
  w.raw("abc");
  ByteReader r(w.data());
  EXPECT_EQ(r.raw(3), "abc");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, OverrunThrowsCorruptData) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  r.u8();
  EXPECT_THROW(r.u32(), CorruptData);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.varint(100);  // claims 100 bytes, provides none
  ByteReader r(w.data());
  EXPECT_THROW(r.str(), CorruptData);
}

TEST(Bytes, CountBoundedByRemainingBytes) {
  ByteWriter w;
  w.varint(3);
  w.raw("abcdef");  // room for 3 items of 2 bytes, not of 3
  {
    ByteReader r(w.data());
    EXPECT_EQ(r.count(2), 3u);
  }
  {
    ByteReader r(w.data());
    EXPECT_THROW(r.count(3), CorruptData);
  }
  ByteWriter forged;
  forged.varint(std::uint64_t{1} << 62);
  forged.raw("x");
  ByteReader r(forged.data());
  EXPECT_THROW(r.count(1), CorruptData);
}

TEST(Bytes, OverlongVarintThrows) {
  std::string bad(11, '\x80');  // continuation forever
  ByteReader r(bad);
  EXPECT_THROW(r.varint(), CorruptData);
}

TEST(Bytes, FuzzRoundTrip) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    ByteWriter w;
    std::vector<std::uint64_t> vals;
    const int n = static_cast<int>(rng.below(50)) + 1;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t v = rng.next() >> rng.below(64);
      vals.push_back(v);
      w.varint(v);
    }
    ByteReader r(w.data());
    for (const auto v : vals) ASSERT_EQ(r.varint(), v);
    ASSERT_TRUE(r.done());
  }
}

}  // namespace
}  // namespace dpss
