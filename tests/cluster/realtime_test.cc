// Real-time compute node lifecycle: ingestion, immediate queryability,
// periodic persist with offset commits, crash recovery, window-time
// handoff to historical nodes, and partition scale-out.
#include <gtest/gtest.h>

#include <atomic>

#include "cluster/cluster.h"
#include "common/error.h"
#include "storage/adtech.h"

namespace dpss::cluster {
namespace {

using query::countAgg;
using query::longSumAgg;
using query::QuerySpec;
using storage::InputRow;
using storage::Schema;

constexpr TimeMs kHour = 3'600'000;
constexpr TimeMs kT0 = 1'400'000'000'000 -
                       (1'400'000'000'000 % kHour);  // aligned hour start

Schema rtSchema() {
  Schema s;
  s.dimensions = {"publisher", "country"};
  s.metrics = {{"impressions", storage::MetricType::kLong},
               {"revenue", storage::MetricType::kDouble}};
  return s;
}

QuerySpec rtCount(Interval interval) {
  QuerySpec q;
  q.dataSource = "rt-ads";
  q.interval = interval;
  q.aggregations = {countAgg("cnt"), longSumAgg("impressions")};
  return q;
}

std::string event(TimeMs ts, const std::string& pub, double imps) {
  InputRow row;
  row.timestamp = ts;
  row.dimensions = {pub, "cn"};
  row.metrics = {imps, imps / 100.0};
  return storage::encodeInputRow(row);
}

class RealtimeTest : public ::testing::Test {
 protected:
  RealtimeTest() : clock_(kT0) {
    options_.segmentGranularityMs = kHour;
    options_.persistPeriodMs = 600'000;  // 10 min
    options_.windowMs = 600'000;
    options_.rollupGranularityMs = 60'000;
  }

  ManualClock clock_;
  RealtimeNodeOptions options_;
};

TEST_F(RealtimeTest, IngestedDataIsImmediatelyQueryable) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);

  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 1000, "sina", 10));
  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 2000, "sina", 20));
  cluster.realtime(0).tick();
  EXPECT_EQ(cluster.realtime(0).eventsIngested(), 2u);

  const auto outcome =
      cluster.broker().query(rtCount(Interval(kT0, kT0 + kHour)));
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[1], 30.0);
}

TEST_F(RealtimeTest, BrokerNeverCachesMutableRealtimeScans) {
  // Regression: the broker's per-segment result cache keyed on
  // (segment id, query) froze real-time counts at whatever the first
  // scan saw — the "rt" segment keeps its id while events arrive. The
  // default cluster keeps the cache ON, so a repeat query after more
  // ingestion must reflect the new events, not the cached scan.
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);

  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 1000, "sina", 10));
  cluster.realtime(0).tick();
  const auto spec = rtCount(Interval(kT0, kT0 + kHour));
  const auto first = cluster.broker().query(spec);
  EXPECT_DOUBLE_EQ(first.rows[0].values[1], 10.0);

  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 2000, "sina", 25));
  cluster.realtime(0).tick();
  const auto second = cluster.broker().query(spec);
  EXPECT_DOUBLE_EQ(second.rows[0].values[1], 35.0);
  EXPECT_EQ(second.cacheHits, 0u);
}

TEST_F(RealtimeTest, RollupCompressesDuplicateKeys) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);
  // 100 events, same minute, same dims -> one rolled-up row, exact sum.
  for (int i = 0; i < 100; ++i) {
    cluster.messageQueue().append("ads-stream", 0,
                                  event(kT0 + i * 100, "sina", 1));
  }
  cluster.realtime(0).tick();
  const auto outcome =
      cluster.broker().query(rtCount(Interval(kT0, kT0 + kHour)));
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 1.0);    // rolled-up row count
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[1], 100.0);  // sum preserved
}

TEST_F(RealtimeTest, PersistCommitsOffset) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);
  for (int i = 0; i < 5; ++i) {
    cluster.messageQueue().append("ads-stream", 0,
                                  event(kT0 + i, "sina", 1));
  }
  cluster.realtime(0).tick();
  EXPECT_EQ(cluster.messageQueue().committed("realtime-0", "ads-stream", 0),
            0u);  // not yet persisted
  clock_.advance(options_.persistPeriodMs + 1);
  cluster.realtime(0).tick();
  EXPECT_EQ(cluster.messageQueue().committed("realtime-0", "ads-stream", 0),
            5u);
}

TEST_F(RealtimeTest, PersistedDataStillQueryable) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);
  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 1, "sina", 7));
  cluster.realtime(0).tick();
  clock_.advance(options_.persistPeriodMs + 1);
  cluster.realtime(0).tick();  // persists, clears the live index
  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 2, "sina", 5));
  cluster.realtime(0).tick();  // live again

  // Comprehensive view = persisted + live.
  const auto outcome =
      cluster.broker().query(rtCount(Interval(kT0, kT0 + kHour)));
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[1], 12.0);
}

TEST_F(RealtimeTest, CrashRecoveryReplaysFromCommittedOffset) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);

  // Persist the first 3 events (offset committed = 3).
  for (int i = 0; i < 3; ++i) {
    cluster.messageQueue().append("ads-stream", 0,
                                  event(kT0 + i, "sina", 10));
  }
  cluster.realtime(0).tick();
  clock_.advance(options_.persistPeriodMs + 1);
  cluster.realtime(0).tick();

  // Two more events arrive, ingested but NOT persisted, then crash.
  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 10, "sina", 1));
  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 11, "sina", 2));
  cluster.realtime(0).tick();
  cluster.restartRealtime(0);

  // Restart: persisted indexes reload; unpersisted events replay from the
  // committed offset. No data loss, no double counting.
  cluster.realtime(0).tick();
  const auto outcome =
      cluster.broker().query(rtCount(Interval(kT0, kT0 + kHour)));
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[1], 33.0);
}

TEST_F(RealtimeTest, WindowTimeHandoffToHistorical) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);

  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 1, "sina", 42));
  cluster.realtime(0).tick();
  EXPECT_EQ(cluster.realtime(0).announcedSegments().size(), 1u);

  // End of hour passes, but within the window: still served by realtime.
  clock_.advance(kHour + options_.windowMs / 2);
  cluster.realtime(0).tick();
  EXPECT_EQ(cluster.realtime(0).announcedSegments().size(), 1u);

  // Window elapses: merge -> upload -> metastore; coordinator assigns the
  // historical segment; once served, the realtime node retires its copy.
  clock_.advance(options_.windowMs);
  cluster.realtime(0).tick();   // uploads + registers
  cluster.converge();           // historical node loads it
  cluster.realtime(0).tick();   // observes the serve, unannounces
  EXPECT_EQ(cluster.realtime(0).announcedSegments().size(), 0u);
  EXPECT_EQ(cluster.realtime(0).pendingHandoffs(), 0u);
  EXPECT_EQ(cluster.historical(0).servedSegments().size(), 1u);

  // Data survived the handoff byte-for-byte (sum preserved).
  const auto outcome =
      cluster.broker().query(rtCount(Interval(kT0, kT0 + kHour)));
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[1], 42.0);
  EXPECT_EQ(outcome.segmentsQueried, 1u);  // only the historical copy now
}

// A substrate that can go away: announcements and metastore writes throw
// Unavailable while `down` is set, as the remote proxies do when the
// substrate process is gone.
class FlakyRegistry : public Registry {
 public:
  void create(const std::string& path, const std::string& data,
              const SessionPtr& session, bool ephemeral) override {
    if (down) throw Unavailable("substrate unreachable");
    Registry::create(path, data, session, ephemeral);
  }
  std::atomic<bool> down{false};
};

class FlakyMetaStore : public MetaStore {
 public:
  void upsertSegment(const SegmentRecord& record) override {
    if (down) throw Unavailable("substrate unreachable");
    MetaStore::upsertSegment(record);
  }
  std::atomic<bool> down{false};
};

TEST_F(RealtimeTest, SubstrateOutageSkipsOnlyTheStepThatNeedsIt) {
  FlakyRegistry registry;
  FlakyMetaStore metaStore;
  storage::MemoryDeepStorage deepStorage;
  Transport transport(clock_);
  MessageQueue queue;
  queue.createTopic("ads-stream", 1);
  NodeDisk disk;
  RealtimeNode node("rt-0", registry, queue, "ads-stream", 0, deepStorage,
                    metaStore, transport, clock_, rtSchema(), "rt-ads", disk,
                    options_);
  node.start();
  const auto outages = [&] {
    return node.metrics().snapshot().counterValue(
        "realtime.substrate_unavailable");
  };

  // Announcing the new bucket fails: the event is still ingested, and the
  // announcement stays pending until the registry is back.
  registry.down = true;
  queue.append("ads-stream", 0, event(kT0 + 1, "sina", 42));
  EXPECT_NO_THROW(node.tick());
  EXPECT_EQ(node.eventsIngested(), 1u);
  EXPECT_TRUE(node.announcedSegments().empty());
  EXPECT_EQ(outages(), 1u);
  registry.down = false;
  node.tick();
  EXPECT_EQ(node.announcedSegments().size(), 1u);

  // Publishing the handoff fails: the next tick publishes it.
  clock_.advance(kHour + options_.windowMs);
  metaStore.down = true;
  EXPECT_NO_THROW(node.tick());
  EXPECT_EQ(outages(), 2u);
  EXPECT_EQ(node.pendingHandoffs(), 0u);
  metaStore.down = false;
  node.tick();
  EXPECT_EQ(node.pendingHandoffs(), 1u);
  EXPECT_EQ(metaStore.usedSegments().size(), 1u);
  node.stop();
}

TEST_F(RealtimeTest, NoDoubleCountingDuringHandoffWindow) {
  // While both the realtime segment and the historical handoff exist, the
  // broker must not scan the hour twice. The timeline overshadows the
  // realtime announcement once the historical version is visible... but
  // version strings make "rt-" sort above "v"; verify the invariant the
  // system actually guarantees: after retirement only one copy answers.
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);
  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 1, "sina", 5));
  cluster.realtime(0).tick();
  clock_.advance(kHour + 2 * options_.windowMs);
  cluster.realtime(0).tick();
  cluster.converge();
  cluster.realtime(0).tick();
  const auto outcome =
      cluster.broker().query(rtCount(Interval(kT0, kT0 + kHour)));
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[1], 5.0);
}

TEST_F(RealtimeTest, MultiplePartitionsScaleOut) {
  // "Multiple real-time compute nodes simultaneously consume the data
  // from the same data stream, each responsible for a part" — partitions.
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 2);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);
  cluster.addRealtimeNode("ads-stream", 1, rtSchema(), "rt-ads", options_);

  for (int i = 0; i < 10; ++i) {
    cluster.messageQueue().append("ads-stream", i % 2,
                                  event(kT0 + i, "pub" + std::to_string(i), 1));
  }
  cluster.realtime(0).tick();
  cluster.realtime(1).tick();
  EXPECT_EQ(cluster.realtime(0).eventsIngested(), 5u);
  EXPECT_EQ(cluster.realtime(1).eventsIngested(), 5u);

  // Broker merges across both partitions' realtime segments.
  const auto outcome =
      cluster.broker().query(rtCount(Interval(kT0, kT0 + kHour)));
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[1], 10.0);
  EXPECT_EQ(outcome.segmentsQueried, 2u);
}

TEST_F(RealtimeTest, EventsAcrossHourBoundaryLandInSeparateSegments) {
  Cluster cluster(clock_, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("ads-stream", 1);
  cluster.addRealtimeNode("ads-stream", 0, rtSchema(), "rt-ads", options_);
  cluster.messageQueue().append("ads-stream", 0, event(kT0 + 10, "a", 1));
  cluster.messageQueue().append("ads-stream", 0,
                                event(kT0 + kHour + 10, "a", 2));
  cluster.realtime(0).tick();
  EXPECT_EQ(cluster.realtime(0).announcedSegments().size(), 2u);

  const auto hour1 =
      cluster.broker().query(rtCount(Interval(kT0, kT0 + kHour)));
  const auto hour2 =
      cluster.broker().query(rtCount(Interval(kT0 + kHour, kT0 + 2 * kHour)));
  EXPECT_DOUBLE_EQ(hour1.rows[0].values[1], 1.0);
  EXPECT_DOUBLE_EQ(hour2.rows[0].values[1], 2.0);
}

}  // namespace
}  // namespace dpss::cluster
