// Broker routing efficiency: the scatter sends exactly one RPC per
// serving node, interval pruning avoids irrelevant nodes, segments a node
// no longer serves or cannot answer go to their next replicas, and the
// LRU result cache honours its capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/names.h"
#include "common/bytes.h"
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

TEST(BrokerRouting, OneRpcPerServingNode) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  const auto segments = generateAdTechSegments(config, "ads", 6);
  cluster.publishSegments(segments);

  // Six segments on two historicals: one request per node, each listing
  // that node's segments.
  const auto before = cluster.transport().callCount();
  const auto all =
      cluster.broker().query(countQuery(Interval(0, 4'000'000'000'000LL)));
  EXPECT_EQ(cluster.transport().callCount() - before, 2u);
  EXPECT_DOUBLE_EQ(all.rows[0].values[0], 300.0);

  // Interval covering two hourly segments -> one RPC per node serving
  // either of them.
  std::set<std::string> serving;
  for (std::size_t i = 0; i < cluster.historicalCount(); ++i) {
    for (const std::size_t s : {1, 2}) {
      if (cluster.historical(i).serves(segments[s]->id())) {
        serving.insert(cluster.historical(i).name());
      }
    }
  }
  ASSERT_FALSE(serving.empty());
  const auto mid = cluster.transport().callCount();
  const auto two = cluster.broker().query(countQuery(
      Interval(segments[1]->id().interval.start(),
               segments[2]->id().interval.end())));
  EXPECT_EQ(cluster.transport().callCount() - mid, serving.size());
  EXPECT_DOUBLE_EQ(two.rows[0].values[0], 100.0);
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

// Every segment is served by exactly one of two historicals, but each is
// also announced by the other one (a view gone stale after a drop). A
// node asked for a segment it does not serve answers not-served for it,
// and the broker asks the segment's next replica.
TEST(BrokerRouting, NotServedSegmentIsAskedOfItsNextReplica) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  const auto segments = generateAdTechSegments(config, "ads", 6);
  cluster.publishSegments(segments);

  const auto stale = cluster.registry().connect("stale-announcer");
  for (const auto& seg : segments) {
    for (std::size_t i = 0; i < cluster.historicalCount(); ++i) {
      if (cluster.historical(i).serves(seg->id())) continue;
      cluster.registry().create(
          paths::servedSegment(cluster.historical(i).name(), seg->id()),
          seg->id().toString(), stale, /*ephemeral=*/true);
    }
  }
  // The replica rotation is seeded, so over a few queries some segment
  // goes to the stale node first.
  const auto spec = countQuery(Interval(0, 4'000'000'000'000LL));
  std::uint64_t notServed = 0;
  for (int q = 0; q < 4; ++q) {
    const auto calls = cluster.transport().callCount();
    const auto outcome = cluster.broker().query(spec);
    EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 300.0) << "query " << q;
    EXPECT_TRUE(outcome.unreachableSegments.empty()) << "query " << q;
    // Two rounds at most, one RPC per node in each.
    EXPECT_LE(cluster.transport().callCount() - calls, 4u) << "query " << q;
    notServed = cluster.collectStats().counterTotal(
        "broker.scatter.not_served");
  }
  EXPECT_GE(notServed, 1u);
}

// A node that is unreachable as a whole hands all of its segments to
// their next replicas, and the fallback is batched too: one RPC per
// fallback node, not one per segment.
TEST(BrokerRouting, UnavailableNodeFallsBackWithOneRpcPerFallbackNode) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  options.brokerCacheCapacity = 0;
  options.defaultRules.replicationFactor = 2;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 6));
  for (std::size_t i = 0; i < cluster.historicalCount(); ++i) {
    ASSERT_EQ(cluster.historical(i).servedSegments().size(), 6u);
  }
  cluster.transport().setPartitioned("historical-0", true);

  // The replica rotation is seeded, so within a few queries one of them
  // routes segments to the partitioned node first.
  const auto spec = countQuery(Interval(0, 4'000'000'000'000LL));
  bool fellBack = false;
  for (int q = 0; q < 8 && !fellBack; ++q) {
    const auto outcome = cluster.broker().query(spec);
    EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 300.0) << "query " << q;
    EXPECT_TRUE(outcome.unreachableSegments.empty()) << "query " << q;

    std::size_t lostToNode0 = 0;
    std::vector<std::size_t> node1Batches;
    for (const auto& span : cluster.collectStats(outcome.traceId).allSpans()) {
      if (span.name != "broker.scatter") continue;
      std::string node;
      std::size_t batch = 0;
      for (const auto& [key, value] : span.tags) {
        if (key == "node") node = value;
        if (key == "segments") batch = std::stoul(value);
      }
      if (node == "historical-0") {
        lostToNode0 += batch;
      } else {
        EXPECT_EQ(node, "historical-1");
        node1Batches.push_back(batch);
      }
    }
    if (lostToNode0 == 0) {
      EXPECT_EQ(node1Batches, std::vector<std::size_t>{6});
      continue;
    }
    fellBack = true;
    // Everything historical-0 was asked for went to historical-1 in one
    // fallback RPC, next to the first round's RPC if it had one.
    if (lostToNode0 == 6) {
      EXPECT_EQ(node1Batches, std::vector<std::size_t>{6});
    } else {
      std::sort(node1Batches.begin(), node1Batches.end());
      std::vector<std::size_t> expected = {lostToNode0, 6 - lostToNode0};
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(node1Batches, expected);
    }
  }
  EXPECT_TRUE(fellBack);
}

// Two historicals each serve some of six segments. With one of them cut
// off, the cached partials still answer its segments, and the batched
// scatter sends nothing at all.
TEST(BrokerRouting, CachedPartialsAnswerForAPartitionedNode) {
  ManualClock clock(1'400'000'000'000);
  Cluster cluster(clock, {.historicalNodes = 2});
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 6));
  const std::size_t cutOff = cluster.historical(0).servedSegments().size();
  ASSERT_GT(cutOff, 0u);
  ASSERT_LT(cutOff, 6u);

  const auto spec = countQuery(Interval(0, 4'000'000'000'000LL));
  (void)cluster.broker().query(spec);  // caches every partial
  cluster.transport().setPartitioned("historical-0", true);
  const auto before = cluster.transport().callCount();
  const auto outcome = cluster.broker().query(spec);
  EXPECT_EQ(cluster.transport().callCount(), before);
  EXPECT_EQ(outcome.cacheHits, 6u);
  EXPECT_TRUE(outcome.unreachableSegments.empty());
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 300.0);
}

// The slow-query log keeps one entry per segment, and an answered
// segment's latency is the scan time its node reported.
TEST(BrokerRouting, SlowQueryLogCarriesNodeReportedScanTimes) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  const auto segments = generateAdTechSegments(config, "ads", 6);
  cluster.publishSegments(segments);

  // Both nodes answer through a stand-in that scans the real segment and
  // reports a scan time known to the test.
  std::map<storage::SegmentId, storage::SegmentPtr> byId;
  std::map<std::string, std::uint64_t> reportedNs;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    byId[segments[i]->id()] = segments[i];
    reportedNs[segments[i]->id().toString()] = 1'000'000 * (i + 1);
  }
  for (std::size_t i = 0; i < cluster.historicalCount(); ++i) {
    cluster.transport().bind(
        cluster.historical(i).name(), [&](const std::string& request) {
          const auto req =
              decodeScatterRequest(std::string_view(request).substr(1));
          std::vector<SegmentScan> scans;
          for (const auto& id : req.segments) {
            ByteWriter w;
            query::scanSegment(*byId.at(id), req.spec).serialize(w);
            scans.push_back(
                SegmentScan{true, reportedNs.at(id.toString()), w.take()});
          }
          return encodeScatterReply(scans);
        });
  }

  const auto outcome =
      cluster.broker().query(countQuery(Interval(0, 4'000'000'000'000LL)));
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 300.0);
  const auto records = cluster.broker().metrics().queryLog().recent();
  ASSERT_FALSE(records.empty());
  const auto& rec = records.back();
  EXPECT_EQ(rec.traceId, outcome.traceId);
  ASSERT_EQ(rec.segments.size(), 6u);
  std::set<std::string> logged;
  for (const auto& entry : rec.segments) {
    EXPECT_EQ(entry.outcome, "ok");
    EXPECT_EQ(entry.latencyNs, reportedNs.at(entry.segment)) << entry.segment;
    const auto id = storage::SegmentId::parse(entry.segment);
    bool servedThere = false;
    for (std::size_t i = 0; i < cluster.historicalCount(); ++i) {
      if (cluster.historical(i).name() == entry.node) {
        servedThere = cluster.historical(i).serves(id);
      }
    }
    EXPECT_TRUE(servedThere) << entry.segment << " logged on " << entry.node;
    logged.insert(entry.segment);
  }
  EXPECT_EQ(logged.size(), 6u);
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
