#include "crypto/prf.h"

#include <gtest/gtest.h>

#include <set>

namespace dpss::crypto {
namespace {

TEST(BitPrf, DeterministicAcrossInstances) {
  BitPrf a(42), b(42);
  for (std::uint64_t i = 0; i < 100; ++i) {
    for (std::uint64_t j = 0; j < 20; ++j) {
      EXPECT_EQ(a(i, j), b(i, j));
    }
  }
}

TEST(BitPrf, SeedChangesFunction) {
  BitPrf a(1), b(2);
  int same = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) same += (a(i, 0) == b(i, 0));
  EXPECT_GT(same, 350);
  EXPECT_LT(same, 650);  // two random functions agree ~half the time
}

TEST(BitPrf, RoughlyBalanced) {
  BitPrf g(7);
  int ones = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    for (std::uint64_t j = 0; j < 100; ++j) ones += g(i, j);
  }
  EXPECT_GT(ones, 4500);
  EXPECT_LT(ones, 5500);
}

TEST(BitPrf, RowsAreDistinct) {
  // Different stream indices must map to different slot subsets, or the
  // reconstruction matrix would be singular by construction.
  BitPrf g(11);
  std::set<std::vector<bool>> rows;
  for (std::uint64_t i = 0; i < 50; ++i) {
    std::vector<bool> row(64);
    for (std::uint64_t j = 0; j < 64; ++j) row[j] = g(i, j);
    rows.insert(row);
  }
  EXPECT_EQ(rows.size(), 50u);
}

TEST(BitPrf, ColumnIsNeverEmptyAndOtherwiseRaw) {
  // 2^20 (seed, index) pairs at l_F = 16: about 16 raw columns are all
  // zero (2^-16 each). Each of those gets exactly one set bit; every
  // other column is g's raw bits unchanged.
  constexpr std::size_t kWidth = 16;
  std::size_t emptyRaw = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const BitPrf g(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (std::uint64_t i = 0; i < (1u << 16); ++i) {
      const std::vector<bool> column = g.column(i, kWidth);
      ASSERT_EQ(column.size(), kWidth);
      std::size_t rawOnes = 0;
      std::size_t ones = 0;
      for (std::size_t j = 0; j < kWidth; ++j) {
        rawOnes += g(i, j);
        ones += column[j];
      }
      if (rawOnes == 0) {
        ++emptyRaw;
        ASSERT_EQ(ones, 1u) << "seed " << seed << " index " << i;
        continue;
      }
      for (std::size_t j = 0; j < kWidth; ++j) {
        ASSERT_EQ(column[j], g(i, j)) << "seed " << seed << " index " << i;
      }
    }
  }
  EXPECT_GT(emptyRaw, 0u);  // the fix-up path ran
  EXPECT_TRUE(BitPrf(5).column(0, 0).empty());
}

TEST(BloomHashFamily, SlotsWithinRange) {
  BloomHashFamily fam(3, 5, 100);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    for (const auto s : fam.slots(i)) EXPECT_LT(s, 100u);
  }
}

TEST(BloomHashFamily, ProducesKSlots) {
  BloomHashFamily fam(3, 7, 50);
  EXPECT_EQ(fam.slots(123).size(), 7u);
}

TEST(BloomHashFamily, DeterministicFromSeed) {
  BloomHashFamily a(9, 4, 64), b(9, 4, 64);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(a.slots(i), b.slots(i));
}

TEST(BloomHashFamily, HashFunctionsAreIndependent) {
  BloomHashFamily fam(13, 2, 1000);
  int same = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    same += (fam.hash(0, i) == fam.hash(1, i));
  }
  EXPECT_LT(same, 20);  // ~1/1000 collision rate expected
}

TEST(BloomHashFamily, SpreadsOverRange) {
  BloomHashFamily fam(17, 1, 64);
  std::set<std::size_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(fam.hash(0, i));
  EXPECT_GT(seen.size(), 60u);  // nearly every bucket hit
}

}  // namespace
}  // namespace dpss::crypto
