// Broker routing efficiency: the scatter fans out exactly one RPC per
// visible segment, interval pruning avoids irrelevant nodes, and the
// LRU result cache honours its capacity.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "query/engine.h"
#include "storage/adtech.h"

namespace dpss::cluster {
namespace {

using storage::AdTechConfig;
using storage::generateAdTechSegments;

query::QuerySpec countQuery(Interval interval) {
  query::QuerySpec q;
  q.dataSource = "ads";
  q.interval = interval;
  q.aggregations = {query::countAgg("cnt")};
  return q;
}

TEST(BrokerRouting, OneRpcPerVisibleSegment) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  const auto segments = generateAdTechSegments(config, "ads", 6);
  cluster.publishSegments(segments);

  const auto before = cluster.transport().callCount();
  (void)cluster.broker().query(
      countQuery(Interval(0, 4'000'000'000'000LL)));
  EXPECT_EQ(cluster.transport().callCount() - before, 6u);

  // Interval covering two hourly segments -> exactly two RPCs.
  const auto mid = cluster.transport().callCount();
  (void)cluster.broker().query(countQuery(
      Interval(segments[1]->id().interval.start(),
               segments[2]->id().interval.end())));
  EXPECT_EQ(cluster.transport().callCount() - mid, 2u);
}

TEST(BrokerRouting, CacheSuppressesRpcsEntirely) {
  ManualClock clock(1'400'000'000'000);
  Cluster cluster(clock, {.historicalNodes = 1});
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 3));
  const auto spec = countQuery(Interval(0, 4'000'000'000'000LL));
  (void)cluster.broker().query(spec);  // populate
  const auto before = cluster.transport().callCount();
  const auto outcome = cluster.broker().query(spec);
  EXPECT_EQ(cluster.transport().callCount(), before);  // zero RPCs
  EXPECT_EQ(outcome.cacheHits, 3u);
}

TEST(BrokerRouting, CacheCapacityEvicts) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 1;
  options.brokerCacheCapacity = 2;  // holds 2 (segment, query) partials
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 3));
  const auto spec = countQuery(Interval(0, 4'000'000'000'000LL));
  (void)cluster.broker().query(spec);  // 3 partials, only 2 fit
  const auto outcome = cluster.broker().query(spec);
  EXPECT_LE(outcome.cacheHits, 2u);  // at least one segment re-fetched
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 150.0);
}

TEST(BrokerRouting, DifferentQueriesDoNotShareCacheEntries) {
  ManualClock clock(1'400'000'000'000);
  Cluster cluster(clock, {.historicalNodes = 1});
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 1));
  (void)cluster.broker().query(
      countQuery(Interval(0, 4'000'000'000'000LL)));
  // Same interval, different aggregation -> different fingerprint.
  auto other = countQuery(Interval(0, 4'000'000'000'000LL));
  other.aggregations.push_back(query::longSumAgg("impressions"));
  const auto outcome = cluster.broker().query(other);
  EXPECT_EQ(outcome.cacheHits, 0u);
}

TEST(BrokerRouting, CacheAfterLossAnswersTopNFromCachedBytes) {
  ManualClock clock(1'400'000'000'000);
  Cluster cluster(clock, {.historicalNodes = 1});
  AdTechConfig config;
  config.rowsPerSegment = 500;
  const auto segments = generateAdTechSegments(config, "ads", 3);
  cluster.publishSegments(segments);
  const auto spec =
      query::tableTwoQuery(6, "ads", Interval(0, 4'000'000'000'000LL));
  query::QueryResult reference;
  for (const auto& seg : segments) {
    reference.mergeFrom(query::scanSegment(*seg, spec));
  }
  const auto expected = query::finalizeResult(spec, reference);
  ASSERT_FALSE(expected.empty());

  const auto first = cluster.broker().query(spec);  // caches the partials
  EXPECT_EQ(first.rows, expected);
  // Every call to the only copy now fails: the cached bytes alone answer.
  cluster.transport().setPartitioned("historical-0", true);
  const auto second = cluster.broker().query(spec);
  EXPECT_EQ(second.cacheHits, 3u);
  EXPECT_TRUE(second.unreachableSegments.empty());
  EXPECT_EQ(second.rows, expected);
}

TEST(BrokerRouting, CorruptPartialFailsTheQueryAndIsNotCached) {
  ManualClock clock(1'400'000'000'000);
  Cluster cluster(clock, {.historicalNodes = 1});
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 1));
  const auto spec = countQuery(Interval(0, 4'000'000'000'000LL));
  // The only copy answers with a truncated partial.
  cluster.transport().bind("historical-0", [](const std::string&) {
    return std::string(3, '\0');
  });
  EXPECT_THROW(cluster.broker().query(spec), CorruptData);
  // Had those bytes been cached, this would be CorruptData again.
  cluster.transport().setPartitioned("historical-0", true);
  EXPECT_THROW(cluster.broker().query(spec), Unavailable);
}

TEST(BrokerRouting, ZeroCapacityCacheHoldsNothing) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 1;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 2));
  const auto spec = countQuery(Interval(0, 4'000'000'000'000LL));
  (void)cluster.broker().query(spec);
  cluster.transport().setPartitioned("historical-0", true);
  EXPECT_THROW(cluster.broker().query(spec), Unavailable);
}

TEST(BrokerRouting, QueryForUnknownDataSourceIsEmptyNotError) {
  ManualClock clock(1'400'000'000'000);
  Cluster cluster(clock, {.historicalNodes = 1});
  auto q = countQuery(Interval(0, 1000));
  q.dataSource = "nonexistent";
  const auto outcome = cluster.broker().query(q);
  EXPECT_EQ(outcome.segmentsQueried, 0u);
  ASSERT_EQ(outcome.rows.size(), 1u);  // ungrouped zero row
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 0.0);
}

}  // namespace
}  // namespace dpss::cluster
