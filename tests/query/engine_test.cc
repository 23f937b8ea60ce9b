#include "query/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "storage/adtech.h"
#include "storage/segment_builder.h"

namespace dpss::query {
namespace {

using storage::MetricType;
using storage::Schema;
using storage::SegmentBuilder;
using storage::SegmentId;
using storage::SegmentPtr;

SegmentPtr adsSegment() {
  Schema schema;
  schema.dimensions = {"publisher", "country"};
  schema.metrics = {{"impressions", MetricType::kLong},
                    {"revenue", MetricType::kDouble}};
  SegmentBuilder builder(schema);
  builder.add({100, {"sina", "cn"}, {10, 1.5}});
  builder.add({200, {"sina", "cn"}, {20, 2.5}});
  builder.add({300, {"yahoo", "us"}, {30, 3.5}});
  builder.add({400, {"yahoo", "cn"}, {40, 4.5}});
  builder.add({500, {"bing", "us"}, {50, 5.5}});
  SegmentId id;
  id.dataSource = "ads";
  id.interval = Interval(0, 1000);
  id.version = "v1";
  return builder.build(std::move(id));
}

QuerySpec baseQuery() {
  QuerySpec q;
  q.dataSource = "ads";
  q.interval = Interval(0, 1000);
  q.aggregations = {countAgg("cnt")};
  return q;
}

TEST(Engine, CountAllRows) {
  const auto seg = adsSegment();
  const auto result = scanSegment(*seg, baseQuery());
  EXPECT_EQ(result.rowsScanned, 5u);
  const auto rows = finalizeResult(baseQuery(), result);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].values[0], 5.0);
}

TEST(Engine, TimestampRangeIsHalfOpen) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.interval = Interval(200, 400);  // rows at 200, 300
  const auto rows = finalizeResult(q, scanSegment(*seg, q));
  EXPECT_DOUBLE_EQ(rows[0].values[0], 2.0);
}

TEST(Engine, EmptyTimeRangeCountsZero) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.interval = Interval(600, 900);
  const auto rows = finalizeResult(q, scanSegment(*seg, q));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].values[0], 0.0);
}

TEST(Engine, LongAndDoubleSums) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.aggregations = {countAgg("cnt"), longSumAgg("impressions"),
                    doubleSumAgg("revenue")};
  const auto rows = finalizeResult(q, scanSegment(*seg, q));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].values[1], 150.0);
  EXPECT_DOUBLE_EQ(rows[0].values[2], 17.5);
}

TEST(Engine, MinMaxAvg) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.aggregations = {minAgg("impressions"), maxAgg("impressions"),
                    avgAgg("revenue")};
  const auto rows = finalizeResult(q, scanSegment(*seg, q));
  EXPECT_DOUBLE_EQ(rows[0].values[0], 10.0);
  EXPECT_DOUBLE_EQ(rows[0].values[1], 50.0);
  EXPECT_DOUBLE_EQ(rows[0].values[2], 3.5);
}

TEST(Engine, FilteredScan) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.filter = selectorFilter("country", "cn");
  q.aggregations = {countAgg("cnt"), longSumAgg("impressions")};
  const auto result = scanSegment(*seg, q);
  EXPECT_EQ(result.rowsScanned, 3u);
  const auto rows = finalizeResult(q, result);
  EXPECT_DOUBLE_EQ(rows[0].values[1], 70.0);
}

TEST(Engine, FilterAndTimeRangeCompose) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.interval = Interval(150, 450);
  q.filter = selectorFilter("publisher", "yahoo");
  const auto rows = finalizeResult(q, scanSegment(*seg, q));
  EXPECT_DOUBLE_EQ(rows[0].values[0], 2.0);  // rows at 300 and 400
}

TEST(Engine, GroupByDimension) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.groupByDimension = "publisher";
  q.aggregations = {countAgg("cnt"), longSumAgg("impressions")};
  const auto result = scanSegment(*seg, q);
  ASSERT_EQ(result.groups.size(), 3u);
  EXPECT_DOUBLE_EQ(result.groups.at("sina")[1].sum, 30.0);
  EXPECT_DOUBLE_EQ(result.groups.at("yahoo")[1].sum, 70.0);
  EXPECT_DOUBLE_EQ(result.groups.at("bing")[1].sum, 50.0);
}

TEST(Engine, TopNOrderingAndLimit) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.groupByDimension = "publisher";
  q.aggregations = {countAgg("cnt")};
  q.orderBy = "cnt";
  q.limit = 2;
  const auto rows = finalizeResult(q, scanSegment(*seg, q));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].group, "sina");   // 2 rows
  EXPECT_EQ(rows[1].group, "yahoo");  // 2 rows (stable tie-break by key)
}

TEST(Engine, OrderByUnknownOutputThrows) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.groupByDimension = "publisher";
  q.orderBy = "nope";
  EXPECT_THROW(finalizeResult(q, scanSegment(*seg, q)), InternalError);
}

TEST(Engine, UnknownMetricThrows) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.aggregations = {longSumAgg("nope")};
  EXPECT_THROW(scanSegment(*seg, q), InvalidArgument);
}

TEST(Engine, PartialMergeMatchesSingleScan) {
  // Scanning two half-ranges and merging must equal one full scan — the
  // broker's merge correctness property.
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.groupByDimension = "country";
  q.aggregations = {countAgg("cnt"), longSumAgg("impressions"),
                    minAgg("revenue"), maxAgg("revenue"), avgAgg("revenue")};

  auto qa = q;
  qa.interval = Interval(0, 300);
  auto qb = q;
  qb.interval = Interval(300, 1000);
  QueryResult merged = scanSegment(*seg, qa);
  merged.mergeFrom(scanSegment(*seg, qb));

  const auto whole = scanSegment(*seg, q);
  const auto rowsMerged = finalizeResult(q, merged);
  const auto rowsWhole = finalizeResult(q, whole);
  EXPECT_EQ(rowsMerged, rowsWhole);
  EXPECT_EQ(merged.rowsScanned, whole.rowsScanned);
}

TEST(Engine, ResultSerializationRoundTrip) {
  const auto seg = adsSegment();
  auto q = baseQuery();
  q.groupByDimension = "publisher";
  q.aggregations = {countAgg("cnt"), avgAgg("revenue")};
  const auto result = scanSegment(*seg, q);
  ByteWriter w;
  result.serialize(w);
  ByteReader r(w.data());
  const auto restored = QueryResult::deserialize(r);
  EXPECT_EQ(finalizeResult(q, restored), finalizeResult(q, result));
  EXPECT_EQ(restored.rowsScanned, result.rowsScanned);
}

TEST(Engine, TableTwoQueriesRunOnAdTechSchema) {
  storage::AdTechConfig config;
  config.rowsPerSegment = 500;
  const auto segments = storage::generateAdTechSegments(config, "ads", 1);
  for (int qn = 1; qn <= 6; ++qn) {
    const auto q = tableTwoQuery(qn, "ads", Interval(0, 1ll << 62));
    const auto result = scanSegment(*segments[0], q);
    EXPECT_EQ(result.rowsScanned, 500u) << "query " << qn;
    const auto rows = finalizeResult(q, result);
    if (qn <= 3) {
      ASSERT_EQ(rows.size(), 1u) << "query " << qn;
      EXPECT_DOUBLE_EQ(rows[0].values[0], 500.0);
    } else {
      EXPECT_LE(rows.size(), 100u) << "query " << qn;
      EXPECT_GT(rows.size(), 0u);
      // Ordered descending by cnt.
      for (std::size_t i = 1; i < rows.size(); ++i) {
        EXPECT_GE(rows[i - 1].values[0], rows[i].values[0]);
      }
    }
  }
}

TEST(Engine, TableTwoAggregatorArity) {
  const Interval all(0, 1);
  EXPECT_EQ(tableTwoQuery(1, "a", all).aggregations.size(), 1u);
  EXPECT_EQ(tableTwoQuery(2, "a", all).aggregations.size(), 2u);
  EXPECT_EQ(tableTwoQuery(3, "a", all).aggregations.size(), 5u);
  EXPECT_EQ(tableTwoQuery(4, "a", all).aggregations.size(), 1u);
  EXPECT_EQ(tableTwoQuery(5, "a", all).aggregations.size(), 2u);
  EXPECT_EQ(tableTwoQuery(6, "a", all).aggregations.size(), 5u);
  EXPECT_TRUE(tableTwoQuery(4, "a", all).groupByDimension ==
              "high_card_dimension");
  EXPECT_THROW(tableTwoQuery(0, "a", all), InternalError);
  EXPECT_THROW(tableTwoQuery(7, "a", all), InternalError);
}

TEST(Engine, QuerySpecSerializationRoundTrip) {
  auto q = tableTwoQuery(5, "ads", Interval(100, 900));
  q.filter = andFilter({selectorFilter("gender", "Male"),
                        notFilter(selectorFilter("country", "country3"))});
  ByteWriter w;
  q.serialize(w);
  ByteReader r(w.data());
  const auto restored = QuerySpec::deserialize(r);
  EXPECT_EQ(restored.fingerprint(), q.fingerprint());
}

TEST(Engine, ForgedQuerySpecsAreCorruptData) {
  // Everything a spec holds before its aggregation list.
  const auto prefix = [] {
    ByteWriter w;
    w.str("ads");
    w.i64(0);
    w.i64(1000);
    w.u8(0);  // no filter
    return w;
  };
  ByteWriter huge = prefix();
  huge.varint(std::uint64_t{1} << 60);
  huge.u8(0);
  huge.str("cnt");
  huge.str("");
  ByteReader hugeReader(huge.data());
  EXPECT_THROW(QuerySpec::deserialize(hugeReader), CorruptData);

  ByteWriter badType = prefix();
  badType.varint(1);
  badType.u8(static_cast<std::uint8_t>(AggType::kAvg) + 1);
  badType.str("cnt");
  badType.str("");
  badType.str("");  // groupBy
  badType.str("");  // orderBy
  badType.varint(0);
  badType.i64(0);
  ByteReader badTypeReader(badType.data());
  EXPECT_THROW(QuerySpec::deserialize(badTypeReader), CorruptData);
}

TEST(Engine, FingerprintDistinguishesQueries) {
  const Interval all(0, 1000);
  EXPECT_NE(tableTwoQuery(1, "a", all).fingerprint(),
            tableTwoQuery(2, "a", all).fingerprint());
  EXPECT_NE(tableTwoQuery(1, "a", all).fingerprint(),
            tableTwoQuery(1, "b", all).fingerprint());
  EXPECT_NE(tableTwoQuery(1, "a", Interval(0, 500)).fingerprint(),
            tableTwoQuery(1, "a", all).fingerprint());
}

// --- node-side topN selection ---------------------------------------------

/// The node-side topN cut as first written: build every group of the
/// segment, then erase the groups whose order value is below the
/// (4·limit+1)-th largest. scanSegment must ship exactly these groups.
QueryResult materializeThenTruncate(const storage::Segment& seg,
                                    const QuerySpec& spec) {
  QuerySpec everything = spec;
  everything.limit = 0;
  QueryResult result = scanSegment(seg, everything);
  if (spec.limit == 0 || spec.orderBy.empty()) return result;
  const std::size_t keep = spec.limit * 4;
  if (result.groups.size() <= keep) return result;
  std::size_t orderIdx = spec.aggregations.size();
  for (std::size_t i = 0; i < spec.aggregations.size(); ++i) {
    if (spec.aggregations[i].outputName == spec.orderBy) {
      orderIdx = i;
      break;
    }
  }
  if (orderIdx == spec.aggregations.size()) return result;
  std::vector<std::pair<double, const std::string*>> ranked;
  for (const auto& [group, partials] : result.groups) {
    ranked.emplace_back(
        partialFinalValue(spec.aggregations[orderIdx], partials[orderIdx]),
        &group);
  }
  std::nth_element(ranked.begin(),
                   ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                   ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  const double cutoff = ranked[keep].first;
  for (auto it = result.groups.begin(); it != result.groups.end();) {
    const double v = partialFinalValue(spec.aggregations[orderIdx],
                                       it->second[orderIdx]);
    it = v < cutoff ? result.groups.erase(it) : std::next(it);
  }
  return result;
}

bool bitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expectSameGroups(const QueryResult& got, const QueryResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.rowsScanned, want.rowsScanned) << label;
  ASSERT_EQ(got.groups.size(), want.groups.size()) << label;
  for (const auto& [group, partials] : want.groups) {
    const auto it = got.groups.find(group);
    ASSERT_NE(it, got.groups.end()) << label << ": missing group " << group;
    ASSERT_EQ(it->second.size(), partials.size()) << label;
    for (std::size_t i = 0; i < partials.size(); ++i) {
      const PartialAgg& a = it->second[i];
      const PartialAgg& b = partials[i];
      EXPECT_TRUE(a.count == b.count && bitEqual(a.sum, b.sum) &&
                  bitEqual(a.minValue, b.minValue) &&
                  bitEqual(a.maxValue, b.maxValue))
          << label << ": group " << group << " aggregation " << i;
    }
  }
}

/// The Table II topN queries plus one ordered by each other aggregation
/// kind, all grouped by the high-cardinality dimension.
std::vector<QuerySpec> topNSpecs(Interval interval) {
  std::vector<QuerySpec> specs;
  for (int qn = 4; qn <= 6; ++qn) {
    specs.push_back(tableTwoQuery(qn, "ads", interval));
  }
  QuerySpec mixed = tableTwoQuery(4, "ads", interval);
  mixed.aggregations = {countAgg("cnt"), longSumAgg("impressions", "imp"),
                        minAgg("revenue", "lo"), maxAgg("revenue", "hi"),
                        avgAgg("spend", "avg")};
  for (const char* order : {"imp", "lo", "hi", "avg"}) {
    mixed.orderBy = order;
    specs.push_back(mixed);
  }
  return specs;
}

TEST(EngineTopN, SelectionMatchesMaterializeThenTruncate) {
  std::size_t cutCases = 0;
  std::size_t sparseCases = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    storage::AdTechConfig config;
    config.seed = seed;
    config.rowsPerSegment = 3'000;
    const SegmentPtr seg = storage::generateAdTechSegments(config, "ads", 1)[0];
    const auto& ts = seg->timestamps();
    const std::size_t dictSize =
        seg->dim(seg->schema().dimensionIndex("high_card_dimension"))
            .dict.size();
    // Full range: the dense per-id path. The first twentieth of the
    // hour: so few rows that the dictionary dwarfs them (sparse path).
    const Interval full(ts.front(), ts.back() + 1);
    const Interval narrow(ts.front(),
                          ts.front() + config.segmentDurationMs / 20);
    const auto narrowRows = static_cast<std::size_t>(
        std::lower_bound(ts.begin(), ts.end(), narrow.end()) - ts.begin());
    ASSERT_GT(dictSize, 2 * narrowRows + 1024) << "seed " << seed;
    ++sparseCases;

    for (const Interval& interval : {full, narrow}) {
      for (const bool filtered : {false, true}) {
        for (QuerySpec spec : topNSpecs(interval)) {
          if (filtered) spec.filter = selectorFilter("gender", "Male");
          spec.limit = 0;
          const std::size_t allGroups = scanSegment(*seg, spec).groups.size();
          for (const std::size_t limit : {1, 10, 100, 0}) {
            spec.limit = limit;
            const QueryResult want = materializeThenTruncate(*seg, spec);
            const QueryResult got = scanSegment(*seg, spec);
            expectSameGroups(got, want,
                             "seed " + std::to_string(seed) + " order " +
                                 spec.orderBy + " limit " +
                                 std::to_string(limit) +
                                 (interval == full ? " full" : " narrow") +
                                 (filtered ? " filtered" : ""));
            if (got.groups.size() < allGroups) ++cutCases;
          }
        }
      }
    }
  }
  EXPECT_GT(cutCases, 1000u);  // the sweep really exercised the cut
  EXPECT_EQ(sparseCases, 50u);
}

SegmentPtr tiedSegment() {
  // Per-publisher row counts 5, 4, 3, 2, 2, 2, 1, 1: with limit 1
  // (keep = 4) the 5th-largest count is 2, and the three groups of
  // count 2 sit at positions 3, 4 and 5 — on both sides of the cut.
  Schema schema;
  schema.dimensions = {"publisher"};
  schema.metrics = {{"impressions", MetricType::kLong}};
  SegmentBuilder builder(schema);
  const std::vector<std::pair<std::string, int>> counts = {
      {"e", 2}, {"a", 5}, {"g", 1}, {"d", 2},
      {"b", 4}, {"h", 1}, {"f", 2}, {"c", 3}};
  TimeMs t = 0;
  for (const auto& [publisher, n] : counts) {
    for (int i = 0; i < n; ++i) builder.add({t++, {publisher}, {1}});
  }
  SegmentId id;
  id.dataSource = "ads";
  id.interval = Interval(0, 1000);
  id.version = "v1";
  return builder.build(std::move(id));
}

TEST(EngineTopN, TiesAtTheCutoffAllShip) {
  const auto seg = tiedSegment();
  auto q = baseQuery();
  q.groupByDimension = "publisher";
  q.orderBy = "cnt";
  q.limit = 1;
  const auto result = scanSegment(*seg, q);
  std::vector<std::string> shipped;
  for (const auto& [group, partials] : result.groups) shipped.push_back(group);
  std::sort(shipped.begin(), shipped.end());
  EXPECT_EQ(shipped, (std::vector<std::string>{"a", "b", "c", "d", "e", "f"}));
  expectSameGroups(result, materializeThenTruncate(*seg, q), "tied");
}

TEST(EngineTopN, UnknownOrderByShipsEveryGroupAndFinalizeRejectsIt) {
  storage::AdTechConfig config;
  config.rowsPerSegment = 3'000;
  const auto seg = storage::generateAdTechSegments(config, "ads", 1)[0];
  auto q = tableTwoQuery(5, "ads", Interval(0, 1ll << 62));
  q.orderBy = "nope";
  q.limit = 1;
  const auto result = scanSegment(*seg, q);
  auto everything = q;
  everything.limit = 0;
  expectSameGroups(result, scanSegment(*seg, everything), "unknown orderBy");
  EXPECT_GT(result.groups.size(), 4u);
  try {
    (void)finalizeResult(q, result);
    FAIL() << "finalizeResult accepted an unknown orderBy";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "orderBy references unknown output: nope"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dpss::query
