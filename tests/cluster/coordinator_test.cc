// Coordinator invariants: idempotence (expected state reached => no new
// work), replication capping, retention boundaries, graceful drain
// (load-before-drop), the throttled rebalancer, leader failover with
// epoch fencing, and surviving a substrate outage.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/names.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "storage/adtech.h"
#include "storage/segment_codec.h"

namespace dpss::cluster {
namespace {

using storage::AdTechConfig;
using storage::generateAdTechSegments;

query::QuerySpec adsCount() {
  query::QuerySpec q;
  q.dataSource = "ads";
  q.interval = Interval(0, 4'000'000'000'000LL);
  q.aggregations = {query::countAgg("cnt")};
  return q;
}

// First adtech segment: [2014-01-01T00:00, +1h) — see AdTechConfig.
constexpr TimeMs kSeg0End = 1'388'534'400'000 + 3'600'000;

TEST(Coordinator, RunOnceIsIdempotentAtSteadyState) {
  ManualClock clock(1'400'000'000'000);
  Cluster cluster(clock, {.historicalNodes = 2});
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 4));

  const auto stats = cluster.coordinator().runOnce();
  EXPECT_EQ(stats.loadsIssued, 0u);
  EXPECT_EQ(stats.dropsIssued, 0u);
  EXPECT_EQ(stats.segmentsEvaluated, 4u);
}

TEST(Coordinator, ReplicationCappedByLiveNodeCount) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  options.defaultRules.replicationFactor = 5;  // more than nodes exist
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 2));

  // Each segment on every live node, exactly once — no queue spam.
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.historical(i).servedSegments().size(), 2u);
  }
  const auto stats = cluster.coordinator().runOnce();
  EXPECT_EQ(stats.loadsIssued, 0u);
}

TEST(Coordinator, SurplusCopiesDroppedWhenReplicationLowered) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  options.defaultRules.replicationFactor = 2;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 2));
  std::size_t copies = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    copies += cluster.historical(i).servedSegments().size();
  }
  EXPECT_EQ(copies, 4u);

  LoadRules lowered;
  lowered.replicationFactor = 1;
  cluster.metaStore().setDefaultRules(lowered);
  cluster.converge();
  copies = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    copies += cluster.historical(i).servedSegments().size();
  }
  EXPECT_EQ(copies, 2u);  // one copy each, still queryable
  query::QuerySpec q;
  q.dataSource = "ads";
  q.interval = Interval(0, 4'000'000'000'000LL);
  q.aggregations = {query::countAgg("cnt")};
  EXPECT_DOUBLE_EQ(cluster.broker().query(q).rows[0].values[0], 100.0);
}

TEST(Coordinator, PerDataSourceRulesOverrideDefault) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  options.defaultRules.replicationFactor = 1;
  Cluster cluster(clock, options);
  cluster.metaStore().setRules("ads", LoadRules{.replicationFactor = 2});

  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 1));
  cluster.publishSegments(generateAdTechSegments(config, "other", 1));

  std::size_t adsCopies = 0, otherCopies = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    for (const auto& id : cluster.historical(i).servedSegments()) {
      (id.dataSource == "ads" ? adsCopies : otherCopies) += 1;
    }
  }
  EXPECT_EQ(adsCopies, 2u);    // per-source rule
  EXPECT_EQ(otherCopies, 1u);  // default rule
}

TEST(Coordinator, UnusedSegmentsDroppedEverywhere) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  options.defaultRules.replicationFactor = 2;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  const auto segments = generateAdTechSegments(config, "ads", 1);
  cluster.publishSegments(segments);

  cluster.metaStore().markUnused(segments[0]->id());
  cluster.converge();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(cluster.historical(i).servedSegments().empty());
  }
}

// --- retention boundaries (LoadRules::retentionMs) ----------------------

TEST(Coordinator, RetentionKeepsSegmentAtExactExpiryInstant) {
  constexpr TimeMs kRetention = 86'400'000;  // one day
  // Clock sits exactly at end + retention: the boundary instant.
  ManualClock clock(kSeg0End + kRetention);
  ClusterOptions options;
  options.historicalNodes = 1;
  options.defaultRules.retentionMs = kRetention;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  const auto segments = generateAdTechSegments(config, "ads", 1);
  cluster.publishSegments(segments);

  // Expiry is strict: a segment outlives its retention window only when
  // now > end + retention, so the boundary instant still serves.
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 1u);
  const auto steady = cluster.coordinator().runOnce();
  EXPECT_EQ(steady.loadsIssued, 0u);
  EXPECT_EQ(steady.dropsIssued, 0u);

  clock.advance(1);  // one millisecond past the boundary
  cluster.converge();
  EXPECT_TRUE(cluster.historical(0).servedSegments().empty());
  // Retention drops serving copies only; the blob survives in deep
  // storage for a later rule change.
  EXPECT_TRUE(cluster.deepStorage().verify(segments[0]->id().toString()));
}

TEST(Coordinator, ZeroRetentionKeepsSegmentsForever) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 1;
  options.defaultRules.retentionMs = 0;  // explicit: keep forever
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 2));
  ASSERT_EQ(cluster.historical(0).servedSegments().size(), 2u);

  clock.advance(10LL * 365 * 86'400'000);  // a decade later
  const auto stats = cluster.coordinator().runOnce();
  EXPECT_EQ(stats.dropsIssued, 0u);
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 2u);
}

TEST(Coordinator, RetentionRuleFlipDropsThenRestoresFromDeepStorage) {
  // A week past the data: kept under the default keep-forever rule,
  // expired the moment a one-day retention rule lands.
  ManualClock clock(kSeg0End + 7 * 86'400'000);
  ClusterOptions options;
  options.historicalNodes = 1;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 1));
  ASSERT_EQ(cluster.historical(0).servedSegments().size(), 1u);

  cluster.metaStore().setRules(
      "ads", LoadRules{.replicationFactor = 1, .retentionMs = 86'400'000});
  cluster.converge();
  EXPECT_TRUE(cluster.historical(0).servedSegments().empty());

  // Rule relaxed again: the segment comes back from deep storage — a
  // retention drop must never be a permanent delete.
  cluster.metaStore().setRules(
      "ads", LoadRules{.replicationFactor = 1, .retentionMs = 0});
  cluster.converge();
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 1u);
  EXPECT_DOUBLE_EQ(cluster.broker().query(adsCount()).rows[0].values[0], 50.0);
}

// --- graceful drain (DESIGN.md §13) -------------------------------------

TEST(Coordinator, DrainReplicatesBeforeDroppingThenCompletes) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 3;
  options.defaultRules.replicationFactor = 2;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  const auto segments = generateAdTechSegments(config, "ads", 4);
  cluster.publishSegments(segments);

  cluster.historical(0).requestDrain();
  cluster.coordinator().requestDrain("historical-0");  // idempotent
  EXPECT_TRUE(cluster.historical(0).draining());

  // Load-before-drop: the first cycle only re-replicates; the draining
  // node keeps serving until replacements are announced.
  const auto first = cluster.coordinator().runOnce();
  EXPECT_GT(first.loadsIssued, 0u);
  EXPECT_EQ(first.dropsIssued, 0u);
  EXPECT_FALSE(cluster.historical(0).servedSegments().empty());
  EXPECT_EQ(first.activeNodes, 2u);
  EXPECT_EQ(first.drainingNodes, 1u);

  cluster.converge(20);
  EXPECT_TRUE(cluster.historical(0).servedSegments().empty());
  for (const auto& seg : segments) {
    int holders = 0;
    for (std::size_t i = 1; i < 3; ++i) {
      if (cluster.historical(i).serves(seg->id())) ++holders;
    }
    EXPECT_EQ(holders, 2) << seg->id().toString();
  }
  EXPECT_DOUBLE_EQ(cluster.broker().query(adsCount()).rows[0].values[0],
                   200.0);

  // The coordinator flipped the flag; the node observes it on its next
  // tick, and a full stop() deregisters the finished drain.
  cluster.historical(0).tick();
  EXPECT_TRUE(cluster.historical(0).drainComplete());
  cluster.historical(0).stop();
  EXPECT_FALSE(cluster.registry().exists(paths::drainFlag("historical-0")));
}

// --- throttled rebalancer ------------------------------------------------

TEST(Coordinator, RebalancerSpreadsLoadToJoinedNodeWithinBudget) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 1;
  options.coordinator.maxMovesPerCycle = 2;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 6));
  ASSERT_EQ(cluster.historical(0).servedSegments().size(), 6u);

  cluster.addHistoricalNode();
  const auto first = cluster.coordinator().runOnce();
  EXPECT_EQ(first.movesIssued, 2u);  // per-cycle move budget respected

  cluster.converge(20);
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 3u);
  EXPECT_EQ(cluster.historical(1).servedSegments().size(), 3u);
  EXPECT_EQ(cluster.coordinator().totalMovesIssued(), 3u);
  EXPECT_LE(cluster.coordinator().lastStats().imbalance, 1u);
  EXPECT_DOUBLE_EQ(cluster.broker().query(adsCount()).rows[0].values[0],
                   300.0);

  // Balanced is a fixed point: no ping-pong moves.
  const auto settled = cluster.coordinator().runOnce();
  EXPECT_EQ(settled.movesIssued, 0u);
  EXPECT_EQ(settled.dropsIssued, 0u);
}

TEST(Coordinator, PendingLoadCapThrottlesDeficitLoads) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 1;
  options.coordinator.maxPendingLoadsPerNode = 2;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;

  // Deep storage is down: every issued load stays pending in the queue.
  cluster.deepStorage().injectGetFailures(1'000);
  cluster.publishSegments(generateAdTechSegments(config, "ads", 4));
  EXPECT_TRUE(cluster.historical(0).servedSegments().empty());

  // Two pending entries fill the node's cap; the other two segments are
  // deferred, not queued — the queue never grows past the cap.
  const auto stats = cluster.coordinator().runOnce();
  EXPECT_EQ(stats.loadsIssued, 0u);
  EXPECT_EQ(stats.throttledLoads, 2u);

  cluster.deepStorage().clearFaults();
  cluster.historical(0).tick();  // retries the stuck queue entries
  cluster.converge(20);
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 4u);
}

TEST(Coordinator, PendingLoadIsNotADropEligibleHolder) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 1;
  options.coordinator.maxPendingLoadsPerNode = 2;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 6));
  ASSERT_EQ(cluster.historical(0).servedSegments().size(), 6u);

  // A node joins while deep storage is down: rebalance moves queue up on
  // it but cannot complete, so they sit pending.
  cluster.deepStorage().injectGetFailures(1'000);
  cluster.addHistoricalNode();
  const auto first = cluster.coordinator().runOnce();
  EXPECT_EQ(first.movesIssued, 2u);      // stopped at the pending cap
  EXPECT_GE(first.throttledMoves, 1u);
  EXPECT_TRUE(cluster.historical(1).servedSegments().empty());

  // Regression: a pending load-queue entry is not a replica holder. The
  // surplus pass must not drop the only serving copy against it.
  const auto second = cluster.coordinator().runOnce();
  EXPECT_EQ(second.dropsIssued, 0u);
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 6u);
  EXPECT_DOUBLE_EQ(cluster.broker().query(adsCount()).rows[0].values[0],
                   300.0);

  // Storage heals: the stuck moves finish and the cluster settles
  // balanced with nothing lost.
  cluster.deepStorage().clearFaults();
  cluster.historical(1).tick();
  cluster.converge(20);
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 3u);
  EXPECT_EQ(cluster.historical(1).servedSegments().size(), 3u);
  EXPECT_DOUBLE_EQ(cluster.broker().query(adsCount()).rows[0].values[0],
                   300.0);
}

// --- leader election + epoch fencing ------------------------------------

TEST(Coordinator, StandbyTakesOverAfterLeaderDeposed) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 50;
  const auto segments = generateAdTechSegments(config, "ads", 4);
  cluster.publishSegments({segments.begin(), segments.begin() + 2});

  // A standby coordinator sharing the same registry + metastore: while
  // the incumbent holds the leader znode it issues nothing.
  CoordinatorNode standby("coordinator-b", cluster.registry(),
                          cluster.metaStore(), clock);
  auto stats = standby.runOnce();
  EXPECT_FALSE(stats.leader);
  EXPECT_EQ(cluster.coordinator().lastStats().epoch, 1u);

  // The incumbent's session expires without it noticing (the classic
  // split-brain setup). The standby acquires with a larger epoch.
  cluster.coordinator().elector().depose();
  stats = standby.runOnce();
  EXPECT_TRUE(stats.leader);
  EXPECT_EQ(stats.epoch, 2u);

  // The deposed incumbent observes the new leader and stands down.
  const auto deposed = cluster.coordinator().runOnce();
  EXPECT_FALSE(deposed.leader);
  EXPECT_EQ(deposed.loadsIssued, 0u);

  // Work continues under the new epoch: segments published after the
  // failover are assigned by the standby.
  for (std::size_t i = 2; i < 4; ++i) {
    const std::string key = segments[i]->id().toString();
    cluster.deepStorage().put(key, storage::encodeSegment(*segments[i]));
    SegmentRecord record;
    record.id = segments[i]->id();
    record.deepStorageKey = key;
    record.sizeBytes = segments[i]->memoryFootprint();
    cluster.metaStore().upsertSegment(record);
  }
  const auto working = standby.runOnce();
  EXPECT_GT(working.loadsIssued, 0u);
  EXPECT_GT(standby.totalLoadsIssued(), 0u);
  EXPECT_DOUBLE_EQ(cluster.broker().query(adsCount()).rows[0].values[0],
                   200.0);

  // A straggler write fenced with the deposed epoch is rejected at the
  // registry and mutates nothing.
  auto session = cluster.registry().connect("stale-writer");
  const std::string stale = paths::loadQueue("historical-0") + "/stale";
  EXPECT_THROW(
      cluster.registry().createFenced(stale, "drop", session,
                                      /*ephemeral=*/false, paths::epochNode(),
                                      1),
      Fenced);
  EXPECT_FALSE(cluster.registry().exists(stale));
}

// --- substrate outage ------------------------------------------------------

// A registry whose listings fail while `down` is set: the in-process
// stand-in for a remote substrate whose process has gone away.
class FlakyRegistry : public Registry {
 public:
  std::vector<std::string> children(const std::string& path) const override {
    if (down) throw Unavailable("substrate unreachable");
    return Registry::children(path);
  }
  std::atomic<bool> down{false};
};

TEST(Coordinator, SubstrateOutageIsALostLeadershipTick) {
  ManualClock clock(1'400'000'000'000);
  FlakyRegistry registry;
  MetaStore metaStore;
  storage::MemoryDeepStorage deepStorage;
  Transport transport(clock);
  HistoricalNode node("historical-0", registry, deepStorage, transport);
  node.start();
  AdTechConfig config;
  config.rowsPerSegment = 10;
  const auto segment = generateAdTechSegments(config, "ads", 1)[0];
  SegmentRecord record;
  record.id = segment->id();
  record.deepStorageKey = segment->id().toString();
  record.sizeBytes = segment->memoryFootprint();
  deepStorage.put(record.deepStorageKey, storage::encodeSegment(*segment));
  metaStore.upsertSegment(record);

  obs::MetricsRegistry metrics("coordinator");
  obs::ScopedRegistry scope(metrics);
  CoordinatorNode coordinator("coordinator", registry, metaStore, clock);

  // The election succeeds, then the cycle's first listing fails: the
  // tick returns as a non-leader instead of throwing out of the loop.
  registry.down = true;
  const auto lost = coordinator.runOnce();
  EXPECT_FALSE(lost.leader);
  EXPECT_EQ(lost.loadsIssued, 0u);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counterValue("coordinator.substrate_unavailable"), 1u);
  ASSERT_NE(snap.find("coordinator.leader"), nullptr);
  EXPECT_EQ(snap.find("coordinator.leader")->gaugeValue, 0);

  // Once the substrate is back, the next tick leads and assigns.
  registry.down = false;
  const auto recovered = coordinator.runOnce();
  EXPECT_TRUE(recovered.leader);
  EXPECT_EQ(recovered.loadsIssued, 1u);
  EXPECT_EQ(node.servedSegments().size(), 1u);
  EXPECT_EQ(metrics.snapshot().counterValue(
                "coordinator.substrate_unavailable"),
            1u);
  node.stop();
}

TEST(HistoricalTick, SubstrateOutageIsCountedAndTickedAgain) {
  ManualClock clock(1'400'000'000'000);
  FlakyRegistry registry;
  storage::MemoryDeepStorage deepStorage;
  Transport transport(clock);
  HistoricalNode node("historical-0", registry, deepStorage, transport);
  node.start();
  const auto outages = [&] {
    return node.metrics().snapshot().counterValue(
        "historical.substrate_unavailable");
  };
  // The load-queue listing fails: the tick ends early instead of
  // throwing out of the process's main loop.
  registry.down = true;
  EXPECT_NO_THROW(node.tick());
  EXPECT_EQ(outages(), 1u);
  registry.down = false;
  EXPECT_NO_THROW(node.tick());
  EXPECT_EQ(outages(), 1u);
  node.stop();
}

}  // namespace
}  // namespace dpss::cluster
