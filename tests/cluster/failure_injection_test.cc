// Failure injection across the cluster: deep-storage outages during
// segment loads, node crashes mid-assignment, broker view convergence
// after churn, and SQL/timeseries queries over the full distributed path.
#include <gtest/gtest.h>

#include "clock_driver.h"
#include "cluster/cluster.h"
#include "cluster/names.h"
#include "cluster/rpc_policy.h"
#include "common/error.h"
#include "query/sql.h"
#include "storage/adtech.h"
#include "storage/segment_codec.h"

namespace dpss::cluster {
namespace {

using storage::AdTechConfig;
using storage::generateAdTechSegments;
using storage::SegmentPtr;

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() : clock_(1'400'000'000'000) {}

  std::vector<SegmentPtr> makeSegments(std::size_t count) {
    AdTechConfig config;
    config.rowsPerSegment = 100;
    return generateAdTechSegments(config, "ads", count);
  }

  static Interval allTime() { return Interval(0, 4'000'000'000'000LL); }

  query::QuerySpec countQuery() {
    query::QuerySpec q;
    q.dataSource = "ads";
    q.interval = allTime();
    q.aggregations = {query::countAgg("cnt")};
    return q;
  }

  ManualClock clock_;
};

TEST_F(FailureTest, DeepStorageOutageRetriedOnNextCoordinatorRun) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  // Every download fails during the first assignment attempt.
  cluster.deepStorage().injectGetFailures(10);
  const auto segments = makeSegments(2);
  for (const auto& seg : segments) {
    const std::string key = seg->id().toString();
    cluster.deepStorage().put(key, storage::encodeSegment(*seg));
    SegmentRecord rec;
    rec.id = seg->id();
    rec.deepStorageKey = key;
    cluster.metaStore().upsertSegment(rec);
  }
  cluster.coordinator().runOnce();  // loads fail, queue entries remain
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 0u);

  // Outage ends; the load-queue entries are still pending. The node's
  // periodic tick retries them (the coordinator never re-issues existing
  // assignments).
  cluster.deepStorage().clearFaults();
  cluster.historical(0).tick();
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 2u);
  const auto outcome = cluster.broker().query(countQuery());
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 200.0);
}

TEST_F(FailureTest, CrashedNodeAnnouncementsVanish) {
  Cluster cluster(clock_, {.historicalNodes = 2});
  cluster.publishSegments(makeSegments(4));
  const auto before =
      cluster.registry().children(paths::announcements()).size();
  EXPECT_EQ(before, 2u);  // only queryable nodes announce themselves
  cluster.historical(0).crash();
  // Ephemeral announcement gone.
  EXPECT_FALSE(
      cluster.registry().exists(paths::nodeAnnouncement("historical-0")));
}

TEST_F(FailureTest, CoordinatorReassignsAfterCrash) {
  Cluster cluster(clock_, {.historicalNodes = 2});
  cluster.publishSegments(makeSegments(4));
  cluster.historical(0).crash();
  cluster.converge();
  // All 4 segments now on the surviving node.
  EXPECT_EQ(cluster.historical(1).servedSegments().size(), 4u);
  const auto outcome = cluster.broker().query(countQuery());
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 400.0);
}

TEST_F(FailureTest, RestartedNodeUsesItsDiskCache) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.publishSegments(makeSegments(3));
  auto& node = cluster.historical(0);
  EXPECT_EQ(node.deepStorageDownloads(), 3u);
  node.crash();
  node.start();
  cluster.converge();  // coordinator reassigns everything
  EXPECT_EQ(node.servedSegments().size(), 3u);
  EXPECT_EQ(node.deepStorageDownloads(), 3u);  // all from local disk
  EXPECT_EQ(node.cacheHits(), 3u);
}

TEST_F(FailureTest, TransientRpcFailuresFailoverToReplica) {
  ClusterOptions options;
  options.historicalNodes = 2;
  options.defaultRules.replicationFactor = 2;
  options.brokerCacheCapacity = 0;  // force real RPCs
  Cluster cluster(clock_, options);
  cluster.publishSegments(makeSegments(2));

  cluster.transport().failNextCalls("historical-0", 5);
  const auto outcome = cluster.broker().query(countQuery());
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 200.0);
}

TEST_F(FailureTest, TransientFailureRetriedOnSameReplica) {
  // Replication 1: before the retry policy, one injected failure killed
  // the only replica and the query; now the policy retries it in place.
  ClusterOptions options;
  options.historicalNodes = 1;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock_, options);
  cluster.publishSegments(makeSegments(2));

  cluster.transport().failNextCalls("historical-0", 1);
  const auto outcome = cluster.broker().query(countQuery());
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 200.0);

  const auto stats = cluster.collectStats();
  EXPECT_GE(stats.counterTotal(rpcmetrics::kRetries), 1u);
  EXPECT_EQ(stats.counterTotal(rpcmetrics::kRetryExhausted), 0u);
}

TEST_F(FailureTest, RetryExhaustionSurfacesInClusterStats) {
  ClusterOptions options;
  options.historicalNodes = 1;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock_, options);
  cluster.publishSegments(makeSegments(1));

  // More consecutive failures than the default 3 attempts: the policy
  // gives up, the only replica is lost, the query fails loudly.
  cluster.transport().failNextCalls("historical-0", 10);
  EXPECT_THROW(cluster.broker().query(countQuery()), Unavailable);

  const auto stats = cluster.collectStats();
  EXPECT_GE(stats.counterTotal(rpcmetrics::kAttempts), 3u);
  EXPECT_GE(stats.counterTotal(rpcmetrics::kRetries), 2u);
  EXPECT_GE(stats.counterTotal(rpcmetrics::kRetryExhausted), 1u);
  EXPECT_GE(stats.counterTotal("broker.scatter.lost_segments"), 1u);
}

TEST_F(FailureTest, DeadlineExpiryUnderInjectedLatency) {
  ClockDriver driver(clock_);  // declared first: outlives the sleepers
  ClusterOptions options;
  options.historicalNodes = 1;
  options.brokerCacheCapacity = 0;
  options.rpcPolicy.maxAttempts = 5;
  options.rpcPolicy.deadlineMs = 20;
  Cluster cluster(clock_, options);
  cluster.publishSegments(makeSegments(1));

  // Every call spends 30ms of injected wire latency and is then dropped:
  // the 20ms deadline expires before a retry can be scheduled, so the
  // typed DeadlineExceeded (an Unavailable) loses the only replica.
  ChaosOptions chaos;
  chaos.seed = 99;
  chaos.dropProbability = 1.0;
  chaos.latencyJitterMinMs = 30;
  chaos.latencyJitterMaxMs = 30;
  cluster.transport().setChaos(chaos);
  EXPECT_THROW(cluster.broker().query(countQuery()), Unavailable);
  cluster.transport().clearChaos();

  const auto stats = cluster.collectStats();
  EXPECT_GE(stats.counterTotal(rpcmetrics::kDeadlineExceeded), 1u);
}

TEST_F(FailureTest, DuplicateDeliveryIsIdempotent) {
  ClusterOptions options;
  options.historicalNodes = 2;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock_, options);
  cluster.publishSegments(makeSegments(4));

  // Every request reaches its handler twice; segment scans are read-only
  // so the answer must be identical to single delivery.
  ChaosOptions chaos;
  chaos.seed = 5;
  chaos.duplicateProbability = 1.0;
  cluster.transport().setChaos(chaos);
  const auto outcome = cluster.broker().query(countQuery());
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 400.0);
  EXPECT_TRUE(outcome.unreachableSegments.empty());
  cluster.transport().clearChaos();

  const auto stats = cluster.collectStats();
  // One scatter RPC per serving node, each delivered twice.
  EXPECT_GE(stats.counterTotal("transport.chaos.duplicates"), 2u);
}

TEST_F(FailureTest, PartialResultWhenStrictMinorityPartitioned) {
  ClusterOptions options;
  options.historicalNodes = 3;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock_, options);
  cluster.publishSegments(makeSegments(3));

  // Partition a node serving exactly one of the three segments (the
  // balancer spreads three equal segments one per node).
  std::size_t victim = cluster.historicalCount();
  for (std::size_t i = 0; i < cluster.historicalCount(); ++i) {
    if (cluster.historical(i).servedSegments().size() == 1) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, cluster.historicalCount());
  cluster.transport().setPartitioned(cluster.historical(victim).name(), true);

  const auto outcome = cluster.broker().query(countQuery());
  EXPECT_TRUE(outcome.partial());
  ASSERT_EQ(outcome.unreachableSegments.size(), 1u);
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 200.0);

  const auto stats = cluster.collectStats();
  EXPECT_GE(stats.counterTotal("broker.query.partial"), 1u);
  EXPECT_GE(stats.counterTotal("broker.scatter.lost_segments"), 1u);

  // Heal: the same query is whole again.
  cluster.transport().setPartitioned(cluster.historical(victim).name(),
                                     false);
  const auto healed = cluster.broker().query(countQuery());
  EXPECT_FALSE(healed.partial());
  EXPECT_DOUBLE_EQ(healed.rows[0].values[0], 300.0);
}

TEST_F(FailureTest, LosingHalfOrMoreThrowsTypedUnavailable) {
  ClusterOptions options;
  options.historicalNodes = 3;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock_, options);
  cluster.publishSegments(makeSegments(3));

  // Cut two of three nodes: at least two segments lose their only
  // replica, which is no longer a strict minority.
  cluster.transport().setPartitioned("historical-0", true);
  cluster.transport().setPartitioned("historical-1", true);
  EXPECT_THROW(cluster.broker().query(countQuery()), Unavailable);
}

TEST_F(FailureTest, SqlThroughTheBroker) {
  Cluster cluster(clock_, {.historicalNodes = 2});
  cluster.publishSegments(makeSegments(4));
  const auto spec = query::parseSql(
      "SELECT count(*) AS cnt, sum(impressions) FROM ads "
      "WHERE gender = 'Male' GROUP BY publisher ORDER BY cnt LIMIT 5");
  const auto outcome = cluster.broker().query(spec);
  EXPECT_LE(outcome.rows.size(), 5u);
  EXPECT_GT(outcome.rows.size(), 0u);
  for (std::size_t i = 1; i < outcome.rows.size(); ++i) {
    EXPECT_GE(outcome.rows[i - 1].values[0], outcome.rows[i].values[0]);
  }
}

TEST_F(FailureTest, TimeseriesThroughTheBroker) {
  Cluster cluster(clock_, {.historicalNodes = 2});
  const auto segments = makeSegments(4);  // 4 hourly segments
  cluster.publishSegments(segments);
  query::QuerySpec q;
  q.dataSource = "ads";
  q.interval = allTime();
  q.aggregations = {query::countAgg("cnt")};
  q.granularityMs = 3'600'000;
  const auto outcome = cluster.broker().query(q);
  ASSERT_EQ(outcome.rows.size(), 4u);  // one row per hour bucket
  for (const auto& row : outcome.rows) {
    EXPECT_DOUBLE_EQ(row.values[0], 100.0);
  }
  // Buckets ascend (zero-padded keys sort naturally).
  for (std::size_t i = 1; i < outcome.rows.size(); ++i) {
    EXPECT_LT(outcome.rows[i - 1].group, outcome.rows[i].group);
  }
}

TEST_F(FailureTest, BrokerViewConvergesAfterScaleOutAndCrash) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.publishSegments(makeSegments(2));
  EXPECT_EQ(cluster.broker()
                .visibleSegments("ads", allTime())
                .size(),
            2u);
  cluster.addHistoricalNode();
  AdTechConfig config;
  config.rowsPerSegment = 100;
  config.startTime = 1'388'534'400'000 + 10 * 3'600'000;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 2));
  EXPECT_EQ(cluster.broker().visibleSegments("ads", allTime()).size(), 4u);

  cluster.historical(0).crash();
  cluster.converge();
  // View rebuilt: everything reassigned to the survivor and queryable.
  const auto outcome = cluster.broker().query(countQuery());
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 400.0);
}

TEST_F(FailureTest, RegistrySessionExpiryMidLoadLeavesQueueConsistent) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  // Crash the node, then publish: the coordinator sees no live nodes and
  // issues nothing; the segment stays pending until a node returns.
  cluster.historical(0).crash();
  const auto segments = makeSegments(1);
  for (const auto& seg : segments) {
    const std::string key = seg->id().toString();
    cluster.deepStorage().put(key, storage::encodeSegment(*seg));
    SegmentRecord rec;
    rec.id = seg->id();
    rec.deepStorageKey = key;
    cluster.metaStore().upsertSegment(rec);
  }
  const auto stats = cluster.coordinator().runOnce();
  EXPECT_EQ(stats.loadsIssued, 0u);

  cluster.historical(0).start();
  cluster.converge();
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 1u);
}

}  // namespace
}  // namespace dpss::cluster
