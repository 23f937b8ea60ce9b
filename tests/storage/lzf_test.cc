#include "storage/lzf.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/error.h"
#include "common/rng.h"

namespace dpss::storage {
namespace {

TEST(Lzf, EmptyInput) {
  EXPECT_EQ(lzfDecompress(lzfCompress("")), "");
}

TEST(Lzf, ShortLiteralOnly) {
  EXPECT_EQ(lzfDecompress(lzfCompress("ab")), "ab");
}

TEST(Lzf, RepetitiveInputCompressesWell) {
  const std::string input(10'000, 'x');
  const std::string compressed = lzfCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 20);
  EXPECT_EQ(lzfDecompress(compressed), input);
}

TEST(Lzf, PatternedInput) {
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "abcdef";
  const std::string compressed = lzfCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 4);
  EXPECT_EQ(lzfDecompress(compressed), input);
}

TEST(Lzf, IncompressibleInputBoundedExpansion) {
  Rng rng(1);
  std::string input;
  for (int i = 0; i < 10'000; ++i) {
    input.push_back(static_cast<char>(rng.next() & 0xff));
  }
  const std::string compressed = lzfCompress(input);
  // Worst case: one control byte per 32 literals plus the size header.
  EXPECT_LT(compressed.size(), input.size() + input.size() / 16 + 16);
  EXPECT_EQ(lzfDecompress(compressed), input);
}

TEST(Lzf, LongMatchesUseExtensionByte) {
  // A long run forces len > 8 back-references.
  std::string input = "HEADER";
  input += std::string(5000, 'z');
  input += "FOOTER";
  EXPECT_EQ(lzfDecompress(lzfCompress(input)), input);
}

TEST(Lzf, OverlappingCopySemantics) {
  // "abcabcabc..." relies on references into bytes just produced.
  std::string input;
  for (int i = 0; i < 500; ++i) input += "abc";
  EXPECT_EQ(lzfDecompress(lzfCompress(input)), input);
}

TEST(Lzf, BinaryDataWithNulBytes) {
  std::string input;
  for (int i = 0; i < 2048; ++i) input.push_back(static_cast<char>(i % 7));
  EXPECT_EQ(lzfDecompress(lzfCompress(input)), input);
}

TEST(Lzf, TruncatedStreamThrows) {
  const std::string compressed = lzfCompress(std::string(1000, 'q'));
  EXPECT_THROW(lzfDecompress(compressed.substr(0, compressed.size() - 1)),
               CorruptData);
}

TEST(Lzf, DeclaredSizeMismatchThrows) {
  std::string compressed = lzfCompress("hello world");
  compressed[0] = 50;  // lie about the raw size (varint fits one byte here)
  EXPECT_THROW(lzfDecompress(compressed), CorruptData);
}

TEST(Lzf, ImpossibleDeclaredSizeThrowsBeforeAllocating) {
  // 3 bytes of body can decode to at most 264 bytes; a header claiming
  // 2^62 must be refused as corrupt, not handed to reserve().
  ByteWriter w;
  w.varint(std::uint64_t{1} << 62);
  std::string bad = w.take();
  bad.append("\xe0\x00\x00", 3);
  EXPECT_THROW(lzfDecompress(bad), CorruptData);
}

TEST(Lzf, GarbageInputThrows) {
  // Back-reference pointing before stream start.
  std::string bad;
  bad.push_back(10);          // declared size 10
  bad.push_back('\xff');      // back-reference, long length, big offset
  bad.push_back('\xff');
  bad.push_back('\xff');
  EXPECT_THROW(lzfDecompress(bad), CorruptData);
}

TEST(Lzf, FuzzRoundTrip) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    std::string input;
    const std::size_t len = rng.below(5000);
    const int alphabet = 1 + static_cast<int>(rng.below(255));
    for (std::size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(rng.below(alphabet)));
    }
    ASSERT_EQ(lzfDecompress(lzfCompress(input)), input)
        << "trial " << trial << " len " << len << " alphabet " << alphabet;
  }
}

TEST(Lzf, ColumnarDataCompresses) {
  // Dictionary-encoded column after the segment sort: long runs of the
  // same id — the exact workload §III-B compresses.
  Rng rng(3);
  std::string input;
  while (input.size() < 10'000) {
    input.append(1 + rng.below(50), static_cast<char>(rng.below(4)));
  }
  const std::string compressed = lzfCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 2);
  EXPECT_EQ(lzfDecompress(compressed), input);
}

}  // namespace
}  // namespace dpss::storage
