#include "storage/segment.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/error.h"
#include "common/hash.h"
#include "storage/adtech.h"
#include "storage/dictionary_encoder.h"
#include "storage/lzf.h"
#include "storage/segment_builder.h"
#include "storage/segment_codec.h"

namespace dpss::storage {
namespace {

Schema tableOneSchema() {
  Schema s;
  s.dimensions = {"publisher", "advertiser", "gender", "country"};
  s.metrics = {{"impressions", MetricType::kLong},
               {"clicks", MetricType::kLong},
               {"revenue", MetricType::kDouble}};
  return s;
}

SegmentId testId() {
  SegmentId id;
  id.dataSource = "ads";
  id.interval = Interval(1000, 2000);
  id.version = "v1";
  id.partition = 0;
  return id;
}

/// Exactly the four rows of the paper's Table I.
SegmentPtr buildTableOneSegment() {
  SegmentBuilder builder(tableOneSchema());
  const TimeMs ts = 1'388'538'000'000;  // 2014-01-01T01:00:00Z
  builder.add({ts, {"sina.com", "baidu.com", "Male", "China"},
               {1800, 25, 15.70}});
  builder.add({ts, {"sina.com", "baidu.com", "Male", "China"},
               {2912, 42, 29.18}});
  builder.add({ts, {"yahoo.com", "google.com", "Male", "USA"},
               {1953, 17, 17.31}});
  builder.add({ts, {"yahoo.com", "google.com", "Male", "USA"},
               {3914, 170, 34.01}});
  SegmentId id;
  id.dataSource = "ads";
  id.interval = Interval(ts, ts + 3'600'000);
  id.version = "v1";
  id.partition = 0;
  return builder.build(std::move(id));
}

TEST(SegmentBuilder, TableOneColumns) {
  const auto seg = buildTableOneSegment();
  ASSERT_EQ(seg->rowCount(), 4u);

  // Publisher column dictionary-encodes to [0,0,1,1] (sorted dict:
  // sina.com=0 because 's' < 'y').
  const auto& pub = seg->dim(0);
  EXPECT_EQ(pub.dict.valueOf(pub.ids[0]), "sina.com");
  EXPECT_EQ(pub.ids, (std::vector<std::uint32_t>{0, 0, 1, 1}));

  // Inverted indexes: sina rows {0,1}, yahoo rows {2,3}; OR = all rows.
  const auto sina = seg->valueBitmap(0, "sina.com");
  const auto yahoo = seg->valueBitmap(0, "yahoo.com");
  EXPECT_EQ(sina.toPositions(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(yahoo.toPositions(), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ((sina | yahoo).cardinality(), 4u);

  // Metric columns carry the exact Table I values.
  EXPECT_EQ(seg->metric(0).longs,
            (std::vector<std::int64_t>{1800, 2912, 1953, 3914}));
  EXPECT_EQ(seg->metric(1).longs,
            (std::vector<std::int64_t>{25, 42, 17, 170}));
  EXPECT_DOUBLE_EQ(seg->metric(2).doubles[3], 34.01);
}

TEST(SegmentBuilder, SortsRowsByTimestamp) {
  SegmentBuilder builder(tableOneSchema());
  builder.add({1500, {"b", "x", "M", "C"}, {1, 1, 1.0}});
  builder.add({1100, {"a", "y", "F", "D"}, {2, 2, 2.0}});
  builder.add({1900, {"c", "z", "M", "E"}, {3, 3, 3.0}});
  const auto seg = builder.build(testId());
  EXPECT_EQ(seg->timestamps(), (std::vector<TimeMs>{1100, 1500, 1900}));
  EXPECT_EQ(seg->minTime(), 1100);
  EXPECT_EQ(seg->maxTime(), 1900);
  // First row after sorting is the 1100 one ("a").
  const auto& pub = seg->dim(0);
  EXPECT_EQ(pub.dict.valueOf(pub.ids[0]), "a");
}

TEST(SegmentBuilder, RejectsMalformedRows) {
  SegmentBuilder builder(tableOneSchema());
  EXPECT_THROW(builder.add({0, {"only", "three", "dims"}, {1, 2, 3.0}}),
               InternalError);
  EXPECT_THROW(builder.add({0, {"a", "b", "c", "d"}, {1.0}}), InternalError);
}

TEST(SegmentBuilder, EmptySegment) {
  SegmentBuilder builder(tableOneSchema());
  const auto seg = builder.build(testId());
  EXPECT_EQ(seg->rowCount(), 0u);
  EXPECT_TRUE(seg->valueBitmap(0, "anything").toPositions().empty());
}

TEST(SegmentBuilder, BuilderReusableAfterBuild) {
  SegmentBuilder builder(tableOneSchema());
  builder.add({1, {"a", "b", "M", "C"}, {1, 1, 1.0}});
  const auto first = builder.build(testId());
  EXPECT_EQ(builder.rowCount(), 0u);
  builder.add({2, {"d", "e", "F", "G"}, {2, 2, 2.0}});
  const auto second = builder.build(testId());
  EXPECT_EQ(first->rowCount(), 1u);
  EXPECT_EQ(second->rowCount(), 1u);
  const auto& pub = second->dim(0);
  EXPECT_EQ(pub.dict.valueOf(pub.ids[0]), "d");
}

TEST(Segment, UnknownValueBitmapIsEmpty) {
  const auto seg = buildTableOneSegment();
  EXPECT_EQ(seg->valueBitmap(0, "bing.com").cardinality(), 0u);
}

TEST(Segment, ConstructorValidatesShape) {
  Schema schema = tableOneSchema();
  EXPECT_THROW(Segment(testId(), schema, {5, 3, 4}, {}, {}), InternalError);
}

TEST(MergeSegments, CombinesAndResorts) {
  SegmentBuilder b1(tableOneSchema());
  b1.add({1500, {"a", "x", "M", "C"}, {10, 1, 1.0}});
  SegmentBuilder b2(tableOneSchema());
  b2.add({1200, {"b", "y", "F", "D"}, {20, 2, 2.0}});
  const auto merged = mergeSegments({b1.build(testId()), b2.build(testId())},
                                    testId());
  ASSERT_EQ(merged->rowCount(), 2u);
  EXPECT_EQ(merged->timestamps(), (std::vector<TimeMs>{1200, 1500}));
  EXPECT_EQ(merged->metric(0).longs, (std::vector<std::int64_t>{20, 10}));
}

TEST(MergeSegments, RejectsSchemaMismatch) {
  SegmentBuilder b1(tableOneSchema());
  Schema other = tableOneSchema();
  other.dimensions.push_back("extra");
  SegmentBuilder b2(other);
  EXPECT_THROW(
      mergeSegments({b1.build(testId()), b2.build(testId())}, testId()),
      InternalError);
}

TEST(SegmentCodec, RoundTripTableOne) {
  const auto seg = buildTableOneSegment();
  const std::string blob = encodeSegment(*seg);
  const auto restored = decodeSegment(blob);
  EXPECT_EQ(restored->id(), seg->id());
  EXPECT_EQ(restored->schema(), seg->schema());
  EXPECT_EQ(restored->rowCount(), seg->rowCount());
  EXPECT_EQ(restored->timestamps(), seg->timestamps());
  EXPECT_EQ(restored->metric(0).longs, seg->metric(0).longs);
  EXPECT_EQ(restored->metric(2).doubles, seg->metric(2).doubles);
  EXPECT_EQ(restored->dim(0).ids, seg->dim(0).ids);
  EXPECT_EQ(restored->valueBitmap(0, "sina.com").toPositions(),
            seg->valueBitmap(0, "sina.com").toPositions());
}

TEST(SegmentCodec, RoundTripLargeGeneratedSegment) {
  AdTechConfig config;
  config.rowsPerSegment = 2000;
  const auto segments = generateAdTechSegments(config, "ads", 1);
  const std::string blob = encodeSegment(*segments[0]);
  const auto restored = decodeSegment(blob);
  EXPECT_EQ(restored->rowCount(), 2000u);
  EXPECT_EQ(restored->timestamps(), segments[0]->timestamps());
  for (std::size_t d = 0; d < 5; ++d) {
    EXPECT_EQ(restored->dim(d).ids, segments[0]->dim(d).ids);
  }
}

TEST(SegmentCodec, CompressionShrinksBlob) {
  AdTechConfig config;
  config.rowsPerSegment = 5000;
  const auto segments = generateAdTechSegments(config, "ads", 1);
  const std::string blob = encodeSegment(*segments[0]);
  EXPECT_LT(blob.size(), segments[0]->memoryFootprint());
}

TEST(SegmentCodec, DetectsCorruption) {
  const auto seg = buildTableOneSegment();
  std::string blob = encodeSegment(*seg);
  blob[blob.size() / 2] ^= 0x5a;
  EXPECT_THROW(decodeSegment(blob), CorruptData);
}

TEST(SegmentCodec, RejectsTruncatedBlob) {
  const auto seg = buildTableOneSegment();
  const std::string blob = encodeSegment(*seg);
  EXPECT_THROW(decodeSegment(blob.substr(0, blob.size() / 2)), CorruptData);
  EXPECT_THROW(decodeSegment(""), CorruptData);
}

TEST(SegmentCodec, RejectsWrongMagic) {
  const auto seg = buildTableOneSegment();
  std::string blob = encodeSegment(*seg);
  blob[0] = 'X';
  EXPECT_THROW(decodeSegment(blob), CorruptData);
}

/// A checksummed one-dimension, metric-free segment blob with the given
/// row count, timestamp column and bitmap section — what a forger who
/// knows the format can hand decodeSegment.
std::string forgedSegmentBlob(std::uint64_t rows,
                              const std::string& timestampColumn,
                              const std::string& bitmapSection) {
  Schema schema;
  schema.dimensions = {"publisher"};
  ByteWriter w;
  w.raw("DPS1");
  testId().serialize(w);
  schema.serialize(w);
  w.varint(rows);
  w.str(lzfCompress(timestampColumn));
  ByteWriter dict;
  StringDictionary().serialize(dict);
  w.str(lzfCompress(dict.data()));
  w.str(lzfCompress(""));  // id column
  w.str(lzfCompress(bitmapSection));
  std::string blob = w.take();
  ByteWriter tail;
  tail.u64(fnv1a(blob));
  return blob + tail.data();
}

TEST(SegmentCodec, ForgedRowCountIsCorruptData) {
  ByteWriter noBitmaps;
  noBitmaps.varint(0);
  // The well-formed empty segment decodes; 2^61 rows over a 3-byte
  // timestamp column are refused before any per-row reserve.
  EXPECT_EQ(decodeSegment(forgedSegmentBlob(0, "", noBitmaps.data()))
                ->rowCount(),
            0u);
  EXPECT_THROW(
      decodeSegment(forgedSegmentBlob(std::uint64_t{1} << 61, "\x02\x02\x02",
                                      noBitmaps.data())),
      CorruptData);
}

TEST(SegmentCodec, ForgedBitmapCountIsCorruptData) {
  ByteWriter bitmaps;
  bitmaps.varint(std::uint64_t{1} << 60);
  bitmaps.varint(0);  // one empty bitmap's two headers
  bitmaps.varint(0);
  EXPECT_THROW(decodeSegment(forgedSegmentBlob(0, "", bitmaps.data())),
               CorruptData);
}

TEST(SegmentId, ToStringParseRoundTrip) {
  SegmentId id;
  id.dataSource = "ads";
  id.interval = Interval(123, 456);
  id.version = "v0007";
  id.partition = 3;
  EXPECT_EQ(SegmentId::parse(id.toString()), id);
}

TEST(SegmentId, ParseRejectsGarbage) {
  EXPECT_THROW(SegmentId::parse("nonsense"), CorruptData);
  EXPECT_THROW(SegmentId::parse("a/b/c/d"), CorruptData);
}

TEST(SegmentId, OrderingByVersion) {
  SegmentId a, b;
  a.dataSource = b.dataSource = "ads";
  a.interval = b.interval = Interval(0, 10);
  a.version = "v0001";
  b.version = "v0002";
  EXPECT_LT(a, b);
}

TEST(AdTech, GeneratorIsDeterministic) {
  AdTechConfig config;
  config.rowsPerSegment = 100;
  const auto a = generateAdTechRows(config, 0);
  const auto b = generateAdTechRows(config, 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_EQ(a[i].dimensions, b[i].dimensions);
  }
}

TEST(AdTech, SegmentsCoverDisjointHourlyIntervals) {
  AdTechConfig config;
  config.rowsPerSegment = 50;
  const auto segments = generateAdTechSegments(config, "ads", 3);
  ASSERT_EQ(segments.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(segments[s]->id().interval.durationMs(), 3'600'000);
    for (const auto t : segments[s]->timestamps()) {
      EXPECT_TRUE(segments[s]->id().interval.contains(t));
    }
    if (s > 0) {
      EXPECT_EQ(segments[s]->id().interval.start(),
                segments[s - 1]->id().interval.end());
    }
  }
}

TEST(AdTech, ZipfSkewVisibleInPublisher) {
  AdTechConfig config;
  config.rowsPerSegment = 5000;
  const auto segments = generateAdTechSegments(config, "ads", 1);
  // pub0 (rank 1) must dominate pub9 (rank 10).
  const auto top = segments[0]->valueBitmap(0, "pub0").cardinality();
  const auto low = segments[0]->valueBitmap(0, "pub9").cardinality();
  EXPECT_GT(top, low * 2);
}

}  // namespace
}  // namespace dpss::storage
