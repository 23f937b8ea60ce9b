#include "query/filter.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "storage/segment_builder.h"

namespace dpss::query {
namespace {

using storage::MetricType;
using storage::Schema;
using storage::SegmentBuilder;
using storage::SegmentId;
using storage::SegmentPtr;

SegmentPtr testSegment() {
  Schema schema;
  schema.dimensions = {"publisher", "country"};
  schema.metrics = {{"clicks", MetricType::kLong}};
  SegmentBuilder builder(schema);
  // rows: 0..5
  builder.add({0, {"sina", "cn"}, {1}});
  builder.add({1, {"sina", "us"}, {2}});
  builder.add({2, {"yahoo", "cn"}, {3}});
  builder.add({3, {"yahoo", "us"}, {4}});
  builder.add({4, {"bing", "cn"}, {5}});
  builder.add({5, {"sina", "cn"}, {6}});
  SegmentId id;
  id.dataSource = "t";
  id.interval = Interval(0, 10);
  id.version = "v1";
  return builder.build(std::move(id));
}

TEST(Filter, Selector) {
  const auto seg = testSegment();
  const auto rows = selectorFilter("publisher", "sina")->evaluate(*seg);
  EXPECT_EQ(rows.toPositions(), (std::vector<std::size_t>{0, 1, 5}));
}

TEST(Filter, SelectorUnknownValueMatchesNothing) {
  const auto seg = testSegment();
  EXPECT_EQ(selectorFilter("publisher", "aol")->evaluate(*seg).cardinality(),
            0u);
}

TEST(Filter, SelectorUnknownDimensionThrows) {
  const auto seg = testSegment();
  EXPECT_THROW(selectorFilter("nope", "x")->evaluate(*seg), InvalidArgument);
}

TEST(Filter, In) {
  const auto seg = testSegment();
  const auto rows =
      inFilter("publisher", {"yahoo", "bing"})->evaluate(*seg);
  EXPECT_EQ(rows.toPositions(), (std::vector<std::size_t>{2, 3, 4}));
}

TEST(Filter, And) {
  const auto seg = testSegment();
  const auto rows = andFilter({selectorFilter("publisher", "sina"),
                               selectorFilter("country", "cn")})
                        ->evaluate(*seg);
  EXPECT_EQ(rows.toPositions(), (std::vector<std::size_t>{0, 5}));
}

TEST(Filter, Or) {
  const auto seg = testSegment();
  const auto rows = orFilter({selectorFilter("publisher", "bing"),
                              selectorFilter("country", "us")})
                        ->evaluate(*seg);
  EXPECT_EQ(rows.toPositions(), (std::vector<std::size_t>{1, 3, 4}));
}

TEST(Filter, Not) {
  const auto seg = testSegment();
  const auto rows =
      notFilter(selectorFilter("country", "cn"))->evaluate(*seg);
  EXPECT_EQ(rows.toPositions(), (std::vector<std::size_t>{1, 3}));
}

TEST(Filter, NestedBooleanTree) {
  // (publisher='sina' OR publisher='yahoo') AND NOT country='us'
  const auto seg = testSegment();
  const auto rows =
      andFilter({orFilter({selectorFilter("publisher", "sina"),
                           selectorFilter("publisher", "yahoo")}),
                 notFilter(selectorFilter("country", "us"))})
          ->evaluate(*seg);
  EXPECT_EQ(rows.toPositions(), (std::vector<std::size_t>{0, 2, 5}));
}

TEST(Filter, EmptyCompositesRejected) {
  EXPECT_THROW(andFilter({}), InternalError);
  EXPECT_THROW(orFilter({}), InternalError);
  EXPECT_THROW(notFilter(nullptr), InternalError);
}

TEST(Filter, DescribeIsStable) {
  const auto f = andFilter({selectorFilter("a", "1"),
                            notFilter(inFilter("b", {"2", "3"}))});
  EXPECT_EQ(f->describe(), "(a='1' AND NOT b in ('2','3'))");
}

TEST(Filter, SerializationRoundTrip) {
  const auto seg = testSegment();
  const auto f = andFilter({orFilter({selectorFilter("publisher", "sina"),
                                      inFilter("country", {"us"})}),
                            notFilter(selectorFilter("publisher", "bing"))});
  ByteWriter w;
  f->serialize(w);
  ByteReader r(w.data());
  const auto restored = Filter::deserialize(r);
  EXPECT_EQ(restored->describe(), f->describe());
  EXPECT_EQ(restored->evaluate(*seg).toPositions(),
            f->evaluate(*seg).toPositions());
}

// --- forged wire input ------------------------------------------------------
// Filters arrive inside query specs off broker and historical sockets;
// each forged shape below must be a typed CorruptData, never an
// allocation sized by the sender or unbounded recursion.

FilterPtr decodeFilter(const std::string& bytes) {
  ByteReader r(bytes);
  return Filter::deserialize(r);
}

TEST(FilterForged, HugeInValueCountIsCorruptData) {
  ByteWriter w;
  w.u8(2);  // IN
  w.str("country");
  w.varint(std::uint64_t{1} << 60);
  w.str("us");
  EXPECT_THROW(decodeFilter(w.data()), CorruptData);
}

TEST(FilterForged, HugeChildCountIsCorruptData) {
  for (const std::uint8_t tag : {3, 4}) {  // AND, OR
    ByteWriter w;
    w.u8(tag);
    w.varint(std::uint64_t{1} << 60);
    selectorFilter("a", "b")->serialize(w);
    EXPECT_THROW(decodeFilter(w.data()), CorruptData) << int{tag};
  }
}

TEST(FilterForged, EmptyAndOrIsCorruptData) {
  for (const std::uint8_t tag : {3, 4}) {
    ByteWriter w;
    w.u8(tag);
    w.varint(0);
    EXPECT_THROW(decodeFilter(w.data()), CorruptData) << int{tag};
  }
}

TEST(FilterForged, DeepNotChainIsCorruptData) {
  ByteWriter w;
  for (int i = 0; i < 1'000'000; ++i) w.u8(5);  // NOT NOT NOT ...
  selectorFilter("a", "b")->serialize(w);
  EXPECT_THROW(decodeFilter(w.data()), CorruptData);
  // Nesting a real query could use still decodes.
  FilterPtr f = selectorFilter("publisher", "sina");
  for (int i = 0; i < 32; ++i) f = notFilter(andFilter({f}));
  ByteWriter ok;
  f->serialize(ok);
  EXPECT_EQ(decodeFilter(ok.data())->describe(), f->describe());
}

}  // namespace
}  // namespace dpss::query
