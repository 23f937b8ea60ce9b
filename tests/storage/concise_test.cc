#include "storage/concise.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"

namespace dpss::storage {
namespace {

Bitmap randomBitmap(Rng& rng, std::size_t size, double density) {
  Bitmap b(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (rng.chance(density)) b.set(i);
  }
  return b;
}

TEST(Concise, FromPositionsAndGet) {
  const auto cb = ConciseBitmap::fromPositions({0, 31, 62, 99}, 100);
  EXPECT_EQ(cb.size(), 100u);
  EXPECT_TRUE(cb.get(0));
  EXPECT_TRUE(cb.get(31));
  EXPECT_TRUE(cb.get(62));
  EXPECT_TRUE(cb.get(99));
  EXPECT_FALSE(cb.get(1));
  EXPECT_FALSE(cb.get(98));
}

TEST(Concise, EmptyAndFull) {
  const auto empty = ConciseBitmap::fromPositions({}, 1000);
  EXPECT_EQ(empty.cardinality(), 0u);
  std::vector<std::size_t> all(1000);
  for (std::size_t i = 0; i < 1000; ++i) all[i] = i;
  const auto full = ConciseBitmap::fromPositions(all, 1000);
  EXPECT_EQ(full.cardinality(), 1000u);
}

TEST(Concise, SparseCompressesToFills) {
  // One set bit in a million: nearly everything is zero-fill words.
  const auto cb = ConciseBitmap::fromPositions({500'000}, 1'000'000);
  EXPECT_LT(cb.compressedBytes(), 64u);
  EXPECT_EQ(cb.cardinality(), 1u);
  EXPECT_TRUE(cb.get(500'000));
}

TEST(Concise, DenseRunsCompressToFills) {
  std::vector<std::size_t> positions;
  for (std::size_t i = 100'000; i < 200'000; ++i) positions.push_back(i);
  const auto cb = ConciseBitmap::fromPositions(positions, 1'000'000);
  EXPECT_LT(cb.compressedBytes(), 128u);
  EXPECT_EQ(cb.cardinality(), 100'000u);
}

TEST(Concise, PositionsOutOfRangeThrow) {
  EXPECT_THROW(ConciseBitmap::fromPositions({100}, 100), InternalError);
}

TEST(Concise, RoundTripAgainstPlainBitmap) {
  Rng rng(11);
  for (const double density : {0.001, 0.05, 0.5, 0.95}) {
    const Bitmap plain = randomBitmap(rng, 5000, density);
    const auto cb = ConciseBitmap::fromBitmap(plain);
    EXPECT_EQ(cb.cardinality(), plain.cardinality());
    EXPECT_EQ(cb.toBitmap(), plain);
  }
}

TEST(Concise, BooleanOpsMatchPlainBitmap) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t size = 100 + rng.below(4000);
    const Bitmap pa = randomBitmap(rng, size, rng.uniform01());
    const Bitmap pb = randomBitmap(rng, size, rng.uniform01());
    const auto ca = ConciseBitmap::fromBitmap(pa);
    const auto cb = ConciseBitmap::fromBitmap(pb);
    EXPECT_EQ((ca & cb).toBitmap(), pa & pb) << "size " << size;
    EXPECT_EQ((ca | cb).toBitmap(), pa | pb) << "size " << size;
  }
}

TEST(Concise, NotMatchesPlainFlip) {
  Rng rng(17);
  for (const std::size_t size : {31u, 32u, 62u, 100u, 1000u}) {
    Bitmap plain = randomBitmap(rng, size, 0.3);
    const auto cb = ConciseBitmap::fromBitmap(plain);
    plain.flip();
    EXPECT_EQ((~cb).toBitmap(), plain) << "size " << size;
  }
}

TEST(Concise, PaperExampleOrInCompressedForm) {
  // §III-B: sina rows [0,1], yahoo rows [2,3]; OR covers all four rows.
  const auto sina = ConciseBitmap::fromPositions({0, 1}, 4);
  const auto yahoo = ConciseBitmap::fromPositions({2, 3}, 4);
  const auto joined = sina | yahoo;
  EXPECT_EQ(joined.toPositions(), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Concise, EqualityIgnoresRepresentation) {
  // Same logical bits, different construction order.
  const auto a = ConciseBitmap::fromPositions({5, 10}, 64);
  Bitmap plain(64);
  plain.set(5);
  plain.set(10);
  const auto b = ConciseBitmap::fromBitmap(plain);
  EXPECT_EQ(a, b);
}

TEST(Concise, SizeMismatchThrows) {
  const auto a = ConciseBitmap::fromPositions({}, 10);
  const auto b = ConciseBitmap::fromPositions({}, 20);
  EXPECT_THROW(a & b, InternalError);
  EXPECT_THROW(a | b, InternalError);
}

TEST(Concise, ForEachStopsEarly) {
  const auto cb = ConciseBitmap::fromPositions({1, 2, 3, 4, 5}, 100);
  std::size_t count = 0;
  cb.forEach([&](std::size_t) {
    ++count;
    return count < 3;
  });
  EXPECT_EQ(count, 3u);
}

TEST(Concise, SerializationRoundTrip) {
  Rng rng(19);
  const Bitmap plain = randomBitmap(rng, 3000, 0.1);
  const auto cb = ConciseBitmap::fromBitmap(plain);
  ByteWriter w;
  cb.serialize(w);
  ByteReader r(w.data());
  const auto restored = ConciseBitmap::deserialize(r);
  EXPECT_EQ(restored, cb);
  EXPECT_EQ(restored.toBitmap(), plain);
}

TEST(Concise, ForgedWordCountIsCorruptData) {
  // A 2^62-word count over one real word: refused before any reserve.
  ByteWriter w;
  w.varint(31);
  w.varint(std::uint64_t{1} << 62);
  w.u32(0);
  ByteReader r(w.data());
  EXPECT_THROW(ConciseBitmap::deserialize(r), CorruptData);
}

TEST(Concise, NonMultipleOf31Boundary) {
  // Tail chunk handling: size deliberately straddles a chunk boundary.
  for (const std::size_t size : {30u, 31u, 32u, 61u, 63u}) {
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < size; i += 2) positions.push_back(i);
    const auto cb = ConciseBitmap::fromPositions(positions, size);
    EXPECT_EQ(cb.cardinality(), positions.size()) << "size " << size;
    EXPECT_EQ(cb.toPositions(), positions) << "size " << size;
  }
}

class ConciseDensity : public ::testing::TestWithParam<double> {};

TEST_P(ConciseDensity, OperationsConsistentAcrossDensities) {
  Rng rng(static_cast<std::uint64_t>(GetParam() * 1000) + 1);
  const std::size_t size = 8192;
  const Bitmap pa = randomBitmap(rng, size, GetParam());
  const Bitmap pb = randomBitmap(rng, size, GetParam());
  const auto ca = ConciseBitmap::fromBitmap(pa);
  const auto cb = ConciseBitmap::fromBitmap(pb);
  EXPECT_EQ((ca & cb).cardinality(), (pa & pb).cardinality());
  EXPECT_EQ((ca | cb).cardinality(), (pa | pb).cardinality());
  EXPECT_EQ((~ca).cardinality(), size - pa.cardinality());
}

INSTANTIATE_TEST_SUITE_P(Densities, ConciseDensity,
                         ::testing::Values(0.0, 0.001, 0.01, 0.1, 0.5, 0.9,
                                           0.999, 1.0));

}  // namespace
}  // namespace dpss::storage
