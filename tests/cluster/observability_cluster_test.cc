// A 2-historical + 1-realtime cluster behind the broker, one distributed
// query and one private search, then the cluster-wide snapshot read from
// every node's registry must show the work
// (scatter latency, segments scanned, Paillier folds), the query's trace
// id must appear in spans from at least two distinct nodes, and the
// Prometheus text exposition must be grammatically valid.
#include <gtest/gtest.h>

#include <regex>
#include <set>

#include "cluster/cluster.h"
#include "common/error.h"
#include "pss/session.h"
#include "storage/adtech.h"

namespace dpss::cluster {
namespace {

using storage::AdTechConfig;
using storage::generateAdTechSegments;

constexpr TimeMs kHour = 3'600'000;
constexpr TimeMs kT0 = 1'400'000'000'000 - (1'400'000'000'000 % kHour);

query::QuerySpec countQuery(const std::string& dataSource) {
  query::QuerySpec q;
  q.dataSource = dataSource;
  q.interval = Interval(0, 4'000'000'000'000LL);
  q.aggregations = {query::countAgg("cnt")};
  return q;
}

void expectValidPrometheus(const std::string& text, const std::string& node) {
  const std::regex lineRe(
      R"(^(# (TYPE|HELP) .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?)$)");
  std::size_t pos = 0, lines = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << node << ": unterminated line";
    const std::string line = text.substr(pos, nl - pos);
    EXPECT_TRUE(std::regex_match(line, lineRe))
        << node << ": bad exposition line: " << line;
    pos = nl + 1;
    ++lines;
  }
  EXPECT_GT(lines, 0u) << node << ": empty exposition";
}

TEST(Observability, ClusterWideSnapshotTracesAndExposition) {
  ManualClock clock(kT0);
  ClusterOptions options;
  options.historicalNodes = 2;
  Cluster cluster(clock, options);

  // Historical side: four segments spread over both nodes.
  AdTechConfig config;
  config.rowsPerSegment = 100;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 4));

  // Realtime side: one node on its own stream, with ingested events.
  cluster.messageQueue().createTopic("live", 1);
  storage::Schema schema;
  schema.dimensions = {"k"};
  schema.metrics = {{"v", storage::MetricType::kLong}};
  cluster.addRealtimeNode("live", 0, schema, "rt-ads");
  for (int i = 0; i < 50; ++i) {
    storage::InputRow row;
    row.timestamp = kT0 + i;
    row.dimensions = {"k" + std::to_string(i % 3)};
    row.metrics = {1.0};
    cluster.messageQueue().append("live", 0, storage::encodeInputRow(row));
  }
  cluster.realtime(0).tick();

  // --- one distributed query over each data source -----------------------
  const auto outcome = cluster.broker().query(countQuery("ads"));
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 400.0);
  ASSERT_NE(outcome.traceId, 0u);

  query::QuerySpec rtSpec = countQuery("rt-ads");
  rtSpec.aggregations.push_back(query::longSumAgg("v"));
  const auto rtOutcome = cluster.broker().query(rtSpec);
  // Roll-up collapses events by dimension; the summed metric is exact.
  EXPECT_DOUBLE_EQ(rtOutcome.rows[0].values[1], 50.0);

  // --- one private search over document slices on both historicals ------
  const std::vector<std::string> dictWords = {"breach", "leak", "malware",
                                              "normal", "virus", "worm"};
  pss::Dictionary dict(dictWords);
  pss::SearchParams params{
      .bufferLength = 8, .indexBufferLength = 256, .bloomHashes = 5};
  pss::PrivateSearchClient client(dict, params, 128, 4242);

  std::vector<std::string> docs;
  for (int i = 0; i < 20; ++i) {
    docs.push_back("routine log line " + std::to_string(i));
  }
  docs[3] = "virus detected on host three";
  docs[15] = "worm spreading laterally";  // second node's slice
  cluster.historical(0).loadDocuments("security-log", 0,
                                      {docs.begin(), docs.begin() + 10});
  cluster.historical(1).loadDocuments("security-log", 10,
                                      {docs.begin() + 10, docs.end()});

  std::uint64_t pssTraceId = 0;
  bool recovered = false;
  for (int attempt = 0; attempt < 5 && !recovered; ++attempt) {
    const auto query = client.makeQuery({"virus", "worm"});
    const auto envelopes = cluster.broker().privateSearch(
        "security-log", dict, query, &pssTraceId);
    try {
      std::set<std::uint64_t> indices;
      for (const auto& env : envelopes) {
        for (const auto& r : client.open(env)) indices.insert(r.index);
      }
      EXPECT_EQ(indices, (std::set<std::uint64_t>{3, 15}));
      recovered = true;
    } catch (const CryptoError&) {
      continue;  // singular system; re-scatter (protocol-level retry)
    }
  }
  EXPECT_TRUE(recovered);
  ASSERT_NE(pssTraceId, 0u);

  // --- (a) the cluster-wide snapshot -------------------------------------
  const ClusterStats stats = cluster.collectStats();
  // Broker + 2 historicals + 1 realtime all contribute a snapshot.
  EXPECT_GE(stats.nodes.size(), 4u);
  EXPECT_GT(stats.histogramCountTotal("broker.scatter.latency_ns"), 0u);
  EXPECT_GT(stats.counterTotal("historical.segments.scanned"), 0u);
  EXPECT_GT(stats.counterTotal("paillier.fold.count"), 0u);
  EXPECT_GT(stats.counterTotal("realtime.events.ingested"), 0u);
  EXPECT_GT(stats.counterTotal("broker.query.count"), 0u);

  // The scanned-segment total lives on the historical nodes, not the
  // broker: per-node attribution survives aggregation.
  std::uint64_t historicalScans = 0;
  for (const auto& [node, ns] : stats.nodes) {
    if (node.rfind("historical", 0) == 0) {
      historicalScans += ns.metrics.counterValue("historical.segments.scanned");
    } else {
      EXPECT_EQ(ns.metrics.counterValue("historical.segments.scanned"), 0u);
    }
  }
  EXPECT_GE(historicalScans, 4u);

  // --- (b) one query's trace spans multiple nodes ------------------------
  const auto queryNodes = stats.nodesInTrace(outcome.traceId);
  EXPECT_GE(queryNodes.size(), 2u)
      << "distributed query trace confined to one node";
  const auto pssNodes = stats.nodesInTrace(pssTraceId);
  EXPECT_GE(pssNodes.size(), 3u)  // broker + both historical slices
      << "private search trace should cover broker and both slices";

  // A trace-filtered collection returns exactly that query's span tree.
  const ClusterStats filtered = cluster.collectStats(outcome.traceId);
  std::set<std::uint64_t> ids;
  for (const auto& s : filtered.allSpans()) {
    EXPECT_EQ(s.traceId, outcome.traceId);
    ids.insert(s.spanId);
  }
  int roots = 0;
  for (const auto& s : filtered.allSpans()) {
    if (s.parentId == 0) {
      ++roots;
    } else {
      EXPECT_EQ(ids.count(s.parentId), 1u)
          << "orphan span " << s.name << " from " << s.node;
    }
  }
  EXPECT_EQ(roots, 1);

  // --- (c) Prometheus exposition is valid for every node -----------------
  for (const auto& [node, ns] : stats.nodes) {
    expectValidPrometheus(obs::renderText(ns.metrics), node);
  }
}

TEST(Observability, BrokerCacheCountersAreRegistryBacked) {
  ManualClock clock(kT0);
  Cluster cluster(clock, {.historicalNodes = 1});
  AdTechConfig config;
  config.rowsPerSegment = 50;
  cluster.publishSegments(generateAdTechSegments(config, "ads", 2));

  cluster.broker().query(countQuery("ads"));  // cold: misses
  const auto afterCold = cluster.broker().metrics().snapshot();
  const std::uint64_t misses = afterCold.counterValue("broker.cache.misses");
  EXPECT_GE(misses, 2u);
  EXPECT_EQ(afterCold.counterValue("broker.cache.hits"), 0u);

  const auto outcome = cluster.broker().query(countQuery("ads"));  // warm
  EXPECT_EQ(outcome.cacheHits, 2u);
  const auto afterWarm = cluster.broker().metrics().snapshot();
  EXPECT_EQ(afterWarm.counterValue("broker.cache.hits"), 2u);
  EXPECT_EQ(afterWarm.counterValue("broker.cache.misses"), misses);
}

}  // namespace
}  // namespace dpss::cluster
