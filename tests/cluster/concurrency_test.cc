// Concurrency stress: broker queries racing coordinator churn, node
// crashes/restarts, and real-time ingestion; subscription seals racing
// fetches and attach/detach churn. The invariants: no crashes,
// no torn results (counts are always a multiple of a whole segment), and
// convergence to the correct total afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "cluster/subscription_host.h"
#include "common/error.h"
#include "pss/session.h"
#include "pss/subscription.h"
#include "storage/adtech.h"

namespace dpss::cluster {
namespace {

using storage::AdTechConfig;
using storage::generateAdTechSegments;

query::QuerySpec countQuery() {
  query::QuerySpec q;
  q.dataSource = "ads";
  q.interval = Interval(0, 4'000'000'000'000LL);
  q.aggregations = {query::countAgg("cnt")};
  return q;
}

TEST(Concurrency, QueriesDuringCoordinatorChurn) {
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 3;
  options.defaultRules.replicationFactor = 2;
  options.brokerCacheCapacity = 0;  // every query takes the real path
  Cluster cluster(clock, options);

  AdTechConfig config;
  config.rowsPerSegment = 100;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 6));

  std::atomic<bool> stop{false};
  std::atomic<int> queries{0};
  std::atomic<int> unavailable{0};

  std::vector<std::thread> queryThreads;
  for (int t = 0; t < 3; ++t) {
    queryThreads.emplace_back([&] {
      while (!stop.load()) {
        try {
          const auto outcome = cluster.broker().query(countQuery());
          // Partial visibility is allowed during churn, torn rows are not:
          // the count is always a whole number of 100-row segments.
          const auto cnt = outcome.rows[0].values[0];
          ASSERT_EQ(static_cast<long long>(cnt) % 100, 0);
          ASSERT_LE(cnt, 600.0);
          queries.fetch_add(1);
        } catch (const Unavailable&) {
          unavailable.fetch_add(1);  // acceptable mid-crash
        }
      }
    });
  }

  // Churn: crash/restart a node and re-run the coordinator repeatedly.
  for (int round = 0; round < 10; ++round) {
    cluster.historical(round % 3).crash();
    cluster.converge();
    cluster.historical(round % 3).start();
    cluster.converge();
  }
  stop.store(true);
  for (auto& t : queryThreads) t.join();

  EXPECT_GT(queries.load(), 0);
  // Settled state: everything answers, exactly once.
  const auto outcome = cluster.broker().query(countQuery());
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 600.0);
}

TEST(Concurrency, QueriesDuringBrokerChurn) {
  // The stop-mid-query pool race (ROADMAP): queries racing broker
  // stop()/start() must either answer correctly or fail with a typed
  // Unavailable — never crash on a destroyed scatter pool or deadlock
  // on the broker mutex during pool teardown.
  ManualClock clock(1'400'000'000'000);
  ClusterOptions options;
  options.historicalNodes = 2;
  options.brokerCacheCapacity = 0;
  Cluster cluster(clock, options);
  AdTechConfig config;
  config.rowsPerSegment = 100;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 4));

  std::atomic<bool> stop{false};
  std::atomic<bool> brokerUp{true};
  std::atomic<int> answered{0};
  std::atomic<int> unavailable{0};
  std::vector<std::thread> queryThreads;
  for (int t = 0; t < 3; ++t) {
    queryThreads.emplace_back([&] {
      while (!stop.load()) {
        // Started-window handshake: only attempt while the churn loop
        // advertises the broker as up, so attempts can't all land in
        // stopped windows (the ~1-in-30 flake on loaded machines). A
        // stop() can still race an in-flight attempt — that race is the
        // point of the test — but it then fails typed, never silently.
        if (!brokerUp.load()) {
          std::this_thread::yield();
          continue;
        }
        try {
          const auto outcome = cluster.broker().query(countQuery());
          const auto cnt = outcome.rows[0].values[0];
          ASSERT_EQ(static_cast<long long>(cnt) % 100, 0);
          answered.fetch_add(1);
        } catch (const Unavailable&) {
          unavailable.fetch_add(1);  // broker mid-restart
        }
      }
    });
  }

  for (int round = 0; round < 25; ++round) {
    brokerUp.store(false);
    cluster.broker().stop();
    cluster.broker().start();
    brokerUp.store(true);
    // Give the started window real width: wait (bounded) until some
    // attempt lands in it before yanking the broker again.
    const int attemptsBefore = answered.load() + unavailable.load();
    for (int spin = 0;
         spin < 200 && answered.load() + unavailable.load() == attemptsBefore;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // The final start() leaves the broker up; wait (bounded) for one
  // settled answer: the assertion checks the broker survives the churn
  // and still answers, not how the scheduler interleaved it.
  for (int spin = 0; spin < 2000 && answered.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& t : queryThreads) t.join();

  EXPECT_GT(answered.load(), 0);
  const auto outcome = cluster.broker().query(countQuery());
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 400.0);
}

TEST(Concurrency, ParallelQueriesShareTheBrokerSafely) {
  ManualClock clock(1'400'000'000'000);
  Cluster cluster(clock, {.historicalNodes = 2});
  AdTechConfig config;
  config.rowsPerSegment = 500;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 4));

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cluster, &failures, t] {
      for (int i = 0; i < 20; ++i) {
        const int qn = 1 + (t + i) % 6;
        const auto spec = query::tableTwoQuery(
            qn, "ads", Interval(0, 4'000'000'000'000LL));
        const auto outcome = cluster.broker().query(spec);
        if (qn <= 3 && outcome.rows[0].values[0] != 2000.0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Concurrency, IngestionRacingQueries) {
  constexpr TimeMs kHour = 3'600'000;
  const TimeMs t0 = 1'400'000'000'000 - (1'400'000'000'000 % kHour);
  ManualClock clock(t0);
  Cluster cluster(clock, {.historicalNodes = 1});
  cluster.messageQueue().createTopic("live", 1);
  storage::Schema schema;
  schema.dimensions = {"k"};
  schema.metrics = {{"v", storage::MetricType::kLong}};
  cluster.addRealtimeNode("live", 0, schema, "live-ads");

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (int i = 0; i < 2000 && !stop.load(); ++i) {
      storage::InputRow row;
      row.timestamp = t0 + i;
      row.dimensions = {"key" + std::to_string(i % 5)};
      row.metrics = {1.0};
      cluster.messageQueue().append("live", 0,
                                    storage::encodeInputRow(row));
    }
  });
  std::thread ticker([&] {
    while (!stop.load()) cluster.realtime(0).tick();
  });

  query::QuerySpec spec;
  spec.dataSource = "live-ads";
  spec.interval = Interval(t0, t0 + kHour);
  spec.aggregations = {query::longSumAgg("v", "total")};
  double last = 0;
  for (int i = 0; i < 50; ++i) {
    const auto outcome = cluster.broker().query(spec);
    const double now =
        outcome.rows.empty() ? 0 : outcome.rows[0].values[0];
    EXPECT_GE(now, last);  // monotone: ingestion only adds
    last = now;
  }
  producer.join();
  stop.store(true);
  ticker.join();

  cluster.realtime(0).tick();
  const auto outcome = cluster.broker().query(spec);
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 2000.0);
}

TEST(Concurrency, SubscriptionSealsRaceFetchesStatusAndChurn) {
  // One driver thread feeds and seals (inline fill seals, tick-style
  // period seals, a final commit barrier) while matchers are re-armed
  // outside the host lock. Fetchers ack as they go, a status reader
  // polls, and a churn thread attaches and detaches other subscriptions,
  // so some of them are detached while being re-armed. No sleeps.
  ManualClock clock(1'400'000'000'000);
  const pss::Dictionary dict({"breach", "routine"});
  pss::PrivateSearchClient client(dict, pss::SearchParams{16, 256, 5}, 128,
                                  606);
  pss::SubscriptionSpec spec;
  spec.docSource = "events";
  spec.dictionaryWords = dict.words();
  spec.query = client.makeQuery({"breach"});
  spec.blocksPerSegment = 2;
  spec.policy.periodMs = 10;
  spec.policy.maxDocuments = 6;

  SubscriptionDiskState disk;
  SubscriptionHost host("rt-0", "events", disk, clock);
  const std::vector<pss::SubscriptionId> stable{1, 2};
  for (const auto id : stable) host.attach(id, spec);

  constexpr std::uint64_t kDocs = 120;
  std::set<std::uint64_t> matching;
  std::atomic<bool> done{false};
  std::thread driver([&] {
    for (std::uint64_t i = 0; i < kDocs; ++i) {
      const std::string text =
          (i % 5 == 0 ? "breach " : "routine ") + std::to_string(i);
      host.onDocument(i, text, text);
      if (i % 7 == 6) {
        clock.advance(spec.policy.periodMs);
        host.sealDue();
      }
    }
    host.sealAll();
    done.store(true);
  });
  for (std::uint64_t i = 0; i < kDocs; i += 5) matching.insert(i);

  std::vector<std::map<std::uint64_t, int>> seen(stable.size());
  std::vector<std::vector<pss::SubscriptionSnapshot>> got(stable.size());
  std::vector<std::thread> readers;
  for (std::size_t k = 0; k < stable.size(); ++k) {
    readers.emplace_back([&, k] {
      std::uint64_t ack = 0;
      const auto drain = [&] {
        for (auto& snap : host.fetch(stable[k], ack)) {
          ++seen[k][snap.seq];
          ack = std::max(ack, snap.seq);
          got[k].push_back(std::move(snap));
        }
      };
      while (!done.load()) drain();
      drain();  // whatever the final barrier sealed
    });
  }
  std::atomic<std::uint64_t> statusReads{0};
  readers.emplace_back([&] {
    while (!done.load()) {
      for (const auto& row : host.status()) EXPECT_LE(row.fillPercent, 100u);
      statusReads.fetch_add(1);
    }
  });
  readers.emplace_back([&] {
    // Two churn subscriptions live at a time, each fed and sealed for a
    // while before it is detached.
    for (std::uint64_t k = 0; !done.load(); ++k) {
      host.attach(100 + k % 3, spec);
      host.fetch(100 + k % 3, 0);
      host.detach(100 + (k + 1) % 3);
    }
  });
  driver.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(statusReads.load(), 0u);

  for (std::size_t k = 0; k < stable.size(); ++k) {
    // Every seq the host stamped was fetched, and exactly once.
    const std::uint64_t sealed = disk.at(stable[k]).nextSeq - 1;
    ASSERT_GT(sealed, kDocs / spec.policy.maxDocuments);
    EXPECT_EQ(seen[k].size(), sealed) << "subscription " << stable[k];
    for (const auto& [seq, times] : seen[k]) {
      EXPECT_GE(seq, 1u);
      EXPECT_LE(seq, sealed);
      EXPECT_EQ(times, 1) << "seq " << seq;
    }
    // And the snapshots, armed while others read the host, open to
    // exactly the matching documents.
    pss::SubscriptionFeed feed(client.privateKey());
    for (const auto& snap : got[k]) feed.apply("rt-0/events", snap.envelope);
    std::set<std::uint64_t> recovered;
    for (const auto& [key, doc] : feed.documents()) {
      recovered.insert(doc.streamIndex);
    }
    EXPECT_EQ(recovered, matching) << "subscription " << stable[k];
  }
}

}  // namespace
}  // namespace dpss::cluster
