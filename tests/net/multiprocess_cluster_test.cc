// The 5-process loopback cluster: coordinator (hosting the authoritative
// substrates), two historicals, one realtime and one broker, each a real
// OS process running the dpss_node binary, wired over TCP. The test
// drives them from outside through the substrate proxies and the control
// channel, answers a plain distributed query and a full private-search
// session, kills one historical mid-run (typed partial result, no hang)
// and watches the cluster heal through the lease sweep.
//
// The binary path arrives via the DPSS_NODE_BIN compile definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cluster/broker_rpc.h"
#include "cluster/metastore.h"
#include "cluster/pss_client.h"
#include "cluster/rpc_policy.h"
#include "cluster/subscription_client.h"
#include "pss/plaintext_access.h"
#include "cluster/span_ship.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/interval.h"
#include "net/control.h"
#include "net/net_transport.h"
#include "net/socket.h"
#include "net/subprocess.h"
#include "net/substrate.h"
#include "obs/trace.h"
#include "obs/trace_assembly.h"
#include "pss/session.h"
#include "query/query.h"
#include "storage/adtech.h"
#include "storage/schema.h"
#include "storage/segment_codec.h"

namespace dpss::net {
namespace {

/// Picks `n` free loopback ports by binding port 0. Every probe stays
/// bound until all of them are picked, so no two coincide; another
/// process can still take one before its node binds it (see bootCluster).
std::vector<std::uint16_t> freePorts(std::size_t n) {
  std::vector<Fd> probes;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    probes.push_back(listenOn("127.0.0.1", 0));
    ports.push_back(boundPort(probes.back()));
  }
  return ports;
}

/// Static routes: node name -> loopback port.
using Wiring = std::vector<std::pair<std::string, std::uint16_t>>;

/// Minimal HTTP client for the admin plane: one GET, read to close.
std::string httpGet(Clock& clock, std::uint16_t port,
                    const std::string& path) {
  const TimeMs deadlineAt = clock.nowMs() + 5'000;
  Fd fd = connectWithDeadline({"127.0.0.1", port}, clock, deadlineAt);
  sendAll(fd, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n", clock,
          deadlineAt);
  std::string response;
  for (;;) {
    const std::string chunk = recvSome(fd, clock, deadlineAt);
    if (chunk.empty()) break;  // Connection: close
    response += chunk;
  }
  return response;
}

std::string httpBody(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

query::QuerySpec countQuery(const std::string& dataSource) {
  query::QuerySpec q;
  q.dataSource = dataSource;
  q.interval = Interval(0, 4'000'000'000'000LL);
  q.aggregations = {query::countAgg("cnt")};
  return q;
}

class MultiprocessClusterTest : public ::testing::Test {
 protected:
  static constexpr const char* kBin = DPSS_NODE_BIN;

  MultiprocessClusterTest() : clock_(SystemClock::instance()) {}

  void TearDown() override {
    // SIGKILL + reap anything a failed test left behind.
    procs_.clear();
  }

  /// Launches one dpss_node role; every process learns every peer (the
  /// static routing a launcher script would configure).
  void spawnRole(const std::string& role, const std::string& name,
                 std::uint16_t port,
                 const std::vector<std::pair<std::string, std::uint16_t>>&
                     peers,
                 const std::vector<std::string>& extraFlags = {}) {
    std::vector<std::string> argv = {
        kBin,           "--role",  role,
        "--name",       name,      "--listen",
        "127.0.0.1:" + std::to_string(port),
        "--tick-ms",    "25",      "--sync-ms",
        "50",           "--heartbeat-ms", "200",
        "--lease-ms",   "1500",    "--rpc-deadline-ms",
        "2000",
    };
    for (const auto& [peerName, peerPort] : peers) {
      argv.push_back("--peer");
      argv.push_back(peerName + "=127.0.0.1:" + std::to_string(peerPort));
    }
    argv.insert(argv.end(), extraFlags.begin(), extraFlags.end());
    procs_.push_back(Subprocess::spawn(argv));
    names_.push_back(name);
  }

  /// The latest process spawned under `name` (a restart reuses it).
  Subprocess& proc(const std::string& name) {
    for (std::size_t i = names_.size(); i-- > 0;) {
      if (names_[i] == name) return procs_[i];
    }
    throw NotFound("no such process: " + name);
  }

  /// Waits until the role's control channel answers (process up + bound).
  /// False if the process exited, or (recorded as a failure) if the
  /// budget ran out. A node whose port was taken exits at once, so the
  /// process is checked before each ping and after the answer: another
  /// process now holding that port may be the one answering.
  bool awaitReady(NetTransport& driver, const std::string& name,
                  TimeMs budgetMs = 15'000) {
    const TimeMs deadline = clock_.nowMs() + budgetMs;
    while (proc(name).running()) {
      try {
        controlPing(driver, name);
        return proc(name).running();
      } catch (const Error&) {
        if (clock_.nowMs() >= deadline) {
          ADD_FAILURE() << "process '" << name << "' never became ready";
          return false;
        }
        clock_.sleepFor(50);
      }
    }
    return false;
  }

  /// Boots a test's processes: `spawn` launches them on the `portCount`
  /// ports it is given and returns their static routes, which the driver
  /// learns; then every process in `ready` must answer. A port probed
  /// free can be taken by another process before its node binds it, and
  /// that node exits at once (`Address already in use`): the whole boot
  /// is then killed and respawned on fresh ports, at most 3 times.
  bool bootCluster(NetTransport& driver, std::size_t portCount,
                   const std::vector<std::string>& ready,
                   const std::function<Wiring(const std::vector<std::uint16_t>&)>&
                       spawn) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const Wiring wiring = spawn(freePorts(portCount));
      for (const auto& [name, port] : wiring) {
        driver.addPeer(name, "127.0.0.1:" + std::to_string(port));
        driver.addPeer(name + ".ctl", "127.0.0.1:" + std::to_string(port));
      }
      std::string exited;
      for (const auto& name : ready) {
        if (awaitReady(driver, name)) continue;
        if (proc(name).running()) return false;  // timed out (recorded)
        exited = name;
        break;
      }
      if (exited.empty()) return true;
      std::fprintf(stderr,
                   "boot %d: '%s' exited with status %d; respawning on "
                   "fresh ports\n",
                   attempt, exited.c_str(), proc(exited).wait());
      procs_.clear();  // SIGKILL + reap
      names_.clear();
    }
    ADD_FAILURE() << "no boot came up in 3 attempts";
    return false;
  }

  /// Polls `condition` until true or the budget elapses.
  bool eventually(const std::function<bool()>& condition,
                  TimeMs budgetMs = 20'000) {
    const TimeMs deadline = clock_.nowMs() + budgetMs;
    while (clock_.nowMs() < deadline) {
      if (condition()) return true;
      clock_.sleepFor(100);
    }
    return condition();
  }

  SystemClock& clock_;
  std::vector<Subprocess> procs_;
  std::vector<std::string> names_;
};

TEST_F(MultiprocessClusterTest, FiveProcessesAnswerQueriesAndPss) {
  // The driver is a sixth participant on the same wire: its transport
  // routes to every process, its substrate proxies publish data, and its
  // RemoteBroker runs queries — nothing in this test short-circuits.
  NetTransport driver(clock_);
  driver.start();
  ASSERT_TRUE(bootCluster(
      driver, 5, {"coordinator", "hist-a", "hist-b", "rt-0", "broker"},
      [&](const std::vector<std::uint16_t>& ports) {
        const std::uint16_t coordPort = ports[0];
        const Wiring wiring = {
            {"substrate", coordPort}, {"coordinator", coordPort},
            {"hist-a", ports[1]},     {"hist-b", ports[2]},
            {"rt-0", ports[3]},       {"broker", ports[4]},
        };
        spawnRole("coordinator", "coordinator", coordPort, wiring);
        spawnRole("historical", "hist-a", ports[1], wiring);
        spawnRole("historical", "hist-b", ports[2], wiring);
        spawnRole("realtime", "rt-0", ports[3], wiring,
                  {"--data-source", "rt-events"});
        // The result cache is disabled so the kill-one-historical phase
        // below observes a genuine partial result, not a cached serve.
        spawnRole("broker", "broker", ports[4], wiring,
                  {"--broker-cache", "0"});
        return wiring;
      }));

  cluster::RpcPolicy rpc;
  rpc.maxAttempts = 3;
  rpc.initialBackoffMs = 50;
  rpc.deadlineMs = 4'000;

  // --- publish 5 historical segments through the remote substrates ----
  RemoteMetaStore metaStore(driver, kSubstrateNode, rpc);
  RemoteDeepStorage deepStorage(driver, kSubstrateNode, rpc);
  storage::AdTechConfig config;
  config.rowsPerSegment = 120;
  const auto segments = storage::generateAdTechSegments(config, "ads", 5);
  for (const auto& segment : segments) {
    const std::string key = segment->id().toString();
    deepStorage.put(key, storage::encodeSegment(*segment));
    cluster::SegmentRecord record;
    record.id = segment->id();
    record.deepStorageKey = key;
    record.sizeBytes = segment->memoryFootprint();
    metaStore.upsertSegment(record);
  }

  // The coordinator process assigns; the historicals download and serve.
  std::size_t servedA = 0;
  std::size_t servedB = 0;
  ASSERT_TRUE(eventually([&] {
    servedA = controlServedSegments(driver, "hist-a").size();
    servedB = controlServedSegments(driver, "hist-b").size();
    return servedA + servedB == 5;
  })) << "segments never got served: " << servedA << " + " << servedB;
  EXPECT_GT(servedA, 0u);
  EXPECT_GT(servedB, 0u);

  // --- plain distributed query through the remote broker --------------
  // The broker learns of served segments through registry watches, which
  // can trail the historicals' own report: retry until its answer covers
  // all 5 segments, then check that answer.
  cluster::RemoteBroker broker(driver, "broker", rpc);
  cluster::BrokerQueryOutcome outcome;
  ASSERT_TRUE(eventually([&] {
    try {
      outcome = broker.query(countQuery("ads"));
    } catch (const Unavailable&) {
      return false;  // most segments not yet visible to the broker
    }
    return outcome.segmentsQueried == 5 && !outcome.partial();
  })) << "broker saw " << outcome.segmentsQueried << " of 5 segments";
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 5 * 120.0);
  EXPECT_EQ(outcome.segmentsQueried, 5u);
  EXPECT_FALSE(outcome.partial());
  EXPECT_NE(outcome.traceId, 0u);

  // --- realtime ingestion, queryable through the same broker ----------
  {
    const TimeMs now = clock_.nowMs();
    std::vector<std::string> events;
    for (int i = 0; i < 7; ++i) {
      storage::InputRow row;
      row.timestamp = now;
      row.dimensions = {"pub" + std::to_string(i % 2), "us"};
      row.metrics = {double(i + 1), i / 100.0};
      events.push_back(storage::encodeInputRow(row));
    }
    controlIngest(driver, "rt-0", events);
    // Sum a metric rather than counting rows: the realtime index rolls
    // up same-timestamp same-dimension events, sums are rollup-invariant.
    query::QuerySpec rtQuery = countQuery("rt-events");
    rtQuery.aggregations = {query::longSumAgg("impressions", "imp")};
    ASSERT_TRUE(eventually([&] {
      const auto rt = broker.query(rtQuery);
      return !rt.rows.empty() && rt.rows[0].values[0] == 28.0;  // 1+..+7
    })) << "ingested events never became queryable";
  }

  // --- full private-search session over both historicals --------------
  {
    const std::vector<std::string> dictWords = {"breach", "leak", "malware",
                                                "normal", "virus"};
    const pss::Dictionary dict(dictWords);
    const pss::SearchParams params{
        .bufferLength = 8, .indexBufferLength = 256, .bloomHashes = 5};
    pss::PrivateSearchClient client(dict, params, 128, 4242);

    std::vector<std::string> docs;
    for (int i = 0; i < 40; ++i) {
      docs.push_back("routine log line " + std::to_string(i));
    }
    docs[4] = "virus detected on host four";
    docs[31] = "worm malware combo on host x";
    controlLoadDocuments(driver, "hist-a", "seclog", 0,
                         {docs.begin(), docs.begin() + 20});
    controlLoadDocuments(driver, "hist-b", "seclog", 20,
                         {docs.begin() + 20, docs.end()});

    cluster::DistributedSearchStats stats;
    const auto recovered = cluster::runDistributedPrivateSearch(
        broker, client, "seclog", {"virus", "malware"}, &stats);
    std::set<std::uint64_t> indices;
    for (const auto& r : recovered) indices.insert(r.index);
    EXPECT_EQ(indices, (std::set<std::uint64_t>{4, 31}));
    for (const auto& r : recovered) EXPECT_EQ(r.payload, docs[r.index]);
    EXPECT_EQ(stats.envelopes, 2u);  // one per historical's slice
    EXPECT_EQ(stats.documents, 40u);
  }

  // --- kill one historical mid-run: typed partial result, no hang -----
  // Kill the node serving fewer segments (a strict minority of 5), so
  // the broker degrades to a partial answer instead of throwing. The
  // counts are re-read right before the kill: the rebalancer may have
  // moved segments since the publish phase.
  ASSERT_TRUE(eventually([&] {
    servedA = controlServedSegments(driver, "hist-a").size();
    servedB = controlServedSegments(driver, "hist-b").size();
    return servedA + servedB == 5;
  })) << "served counts never settled: " << servedA << " + " << servedB;
  const std::string victim = servedA < servedB ? "hist-a" : "hist-b";
  const std::string survivor = servedA < servedB ? "hist-b" : "hist-a";
  const std::size_t lostSegments = std::min(servedA, servedB);
  proc(victim).kill();  // SIGKILL: no graceful unannounce, a real crash

  const auto degraded = broker.query(countQuery("ads"));
  EXPECT_TRUE(degraded.partial());
  EXPECT_EQ(degraded.unreachableSegments.size(), lostSegments);
  EXPECT_DOUBLE_EQ(degraded.rows.empty() ? 0.0 : degraded.rows[0].values[0],
                   (5 - lostSegments) * 120.0);

  // --- recovery: the lease sweep expires the dead node's announcements,
  // the coordinator reassigns, the survivor picks everything up --------
  ASSERT_TRUE(eventually(
      [&] { return controlServedSegments(driver, survivor).size() == 5; },
      30'000))
      << "cluster never healed after losing " << victim;
  // The broker's registry mirror trails the survivor's announcements by a
  // sync period, so poll the query itself for the full answer.
  ASSERT_TRUE(eventually([&] {
    const auto healed = broker.query(countQuery("ads"));
    return !healed.partial() && healed.rows.size() == 1 &&
           healed.rows[0].values[0] == 5 * 120.0;
  })) << "broker never saw the healed timeline";

  // --- graceful shutdown ----------------------------------------------
  for (const auto& name : names_) {
    if (name == victim) continue;
    controlShutdown(driver, name);
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == victim) continue;
    const int status = procs_[i].wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << names_[i] << " exited with status " << status;
  }
}

// The observability plane across real processes: every node serves
// Prometheus text on its admin port, the coordinator assembles the spans
// the other processes ship into one PSS trace with the scatter topology
// and monotone nested timestamps, and the broker's slow-query log
// captures an injected-crash partial query with its unreachable
// segments.
TEST_F(MultiprocessClusterTest, AdminPlaneAssemblesCrossProcessTraces) {
  std::uint16_t coordAdmin = 0;
  std::uint16_t histAAdmin = 0;
  std::uint16_t histBAdmin = 0;
  std::uint16_t brokerAdmin = 0;
  NetTransport driver(clock_);
  driver.start();
  ASSERT_TRUE(bootCluster(
      driver, 8, {"coordinator", "hist-a", "hist-b", "broker"},
      [&](const std::vector<std::uint16_t>& ports) {
        const std::uint16_t coordPort = ports[0];
        coordAdmin = ports[4];
        histAAdmin = ports[5];
        histBAdmin = ports[6];
        brokerAdmin = ports[7];
        const Wiring wiring = {
            {"substrate", coordPort},
            {"coordinator", coordPort},
            {"hist-a", ports[1]},
            {"hist-b", ports[2]},
            {"broker", ports[3]},
        };
        spawnRole("coordinator", "coordinator", coordPort, wiring,
                  {"--admin-port", std::to_string(coordAdmin)});
        spawnRole("historical", "hist-a", ports[1], wiring,
                  {"--admin-port", std::to_string(histAAdmin)});
        spawnRole("historical", "hist-b", ports[2], wiring,
                  {"--admin-port", std::to_string(histBAdmin)});
        // Cache off so the kill phase below produces a genuine partial
        // result for the slow-query log, not a cached serve.
        spawnRole("broker", "broker", ports[3], wiring,
                  {"--broker-cache", "0", "--admin-port",
                   std::to_string(brokerAdmin)});
        return wiring;
      }));

  cluster::RpcPolicy rpc;
  rpc.maxAttempts = 3;
  rpc.initialBackoffMs = 50;
  rpc.deadlineMs = 4'000;

  // --- every node scrapes: Prometheus text with rpc.* and net.* -------
  const std::vector<std::pair<std::string, std::uint16_t>> adminPorts = {
      {"coordinator", coordAdmin},
      {"hist-a", histAAdmin},
      {"hist-b", histBAdmin},
      {"broker", brokerAdmin},
  };
  for (const auto& [name, port] : adminPorts) {
    // The control channel answers before the admin server binds; wait
    // for the admin port separately.
    std::string metrics;
    ASSERT_TRUE(eventually([&] {
      try {
        metrics = httpGet(clock_, port, "/metrics");
        return true;
      } catch (const Error&) {
        return false;
      }
    })) << name << " admin port never came up";
    EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos) << name;
    EXPECT_NE(metrics.find("dpss_rpc_attempts"), std::string::npos)
        << name << " is missing the pre-touched rpc.* series";
    EXPECT_NE(metrics.find("dpss_net_server_accepts"), std::string::npos)
        << name << " is missing the net.* series";
    EXPECT_NE(metrics.find("node=\"" + name + "\""), std::string::npos)
        << name;
    const std::string healthz = httpGet(clock_, port, "/healthz");
    EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos) << name;
  }

  // --- publish historical segments (for the chaos query later) --------
  RemoteMetaStore metaStore(driver, kSubstrateNode, rpc);
  RemoteDeepStorage deepStorage(driver, kSubstrateNode, rpc);
  storage::AdTechConfig config;
  config.rowsPerSegment = 120;
  const auto segments = storage::generateAdTechSegments(config, "ads", 5);
  for (const auto& segment : segments) {
    const std::string key = segment->id().toString();
    deepStorage.put(key, storage::encodeSegment(*segment));
    cluster::SegmentRecord record;
    record.id = segment->id();
    record.deepStorageKey = key;
    record.sizeBytes = segment->memoryFootprint();
    metaStore.upsertSegment(record);
  }
  std::size_t servedA = 0;
  std::size_t servedB = 0;
  ASSERT_TRUE(eventually([&] {
    servedA = controlServedSegments(driver, "hist-a").size();
    servedB = controlServedSegments(driver, "hist-b").size();
    return servedA + servedB == 5;
  })) << "segments never got served: " << servedA << " + " << servedB;

  // --- one PSS session spanning both historicals ----------------------
  cluster::RemoteBroker broker(driver, "broker", rpc);
  std::uint64_t traceId = 0;
  {
    const pss::Dictionary dict(
        {"breach", "leak", "malware", "normal", "virus"});
    const pss::SearchParams params{
        .bufferLength = 8, .indexBufferLength = 256, .bloomHashes = 5};
    pss::PrivateSearchClient client(dict, params, 128, 4242);
    std::vector<std::string> docs;
    for (int i = 0; i < 30; ++i) {
      docs.push_back("routine log line " + std::to_string(i));
    }
    docs[4] = "virus detected on host four";
    docs[21] = "worm malware combo on host x";
    controlLoadDocuments(driver, "hist-a", "seclog", 0,
                         {docs.begin(), docs.begin() + 15});
    controlLoadDocuments(driver, "hist-b", "seclog", 15,
                         {docs.begin() + 15, docs.end()});

    cluster::DistributedSearchStats stats;
    const auto recovered = cluster::runDistributedPrivateSearch(
        broker, client, "seclog", {"virus", "malware"}, &stats);
    std::set<std::uint64_t> indices;
    for (const auto& r : recovered) indices.insert(r.index);
    EXPECT_EQ(indices, (std::set<std::uint64_t>{4, 21}));
    EXPECT_EQ(stats.envelopes, 2u);
    traceId = stats.traceId;
  }
  ASSERT_NE(traceId, 0u) << "broker returned no trace id for the search";

  // --- the coordinator assembles the cross-process trace ---------------
  // Spans ship on maintenance ticks (25ms here); poll the sink until the
  // full scatter shape arrived from all three processes.
  std::vector<obs::Span> spans;
  ASSERT_TRUE(eventually([&] {
    try {
      spans = cluster::callSpansFetch(driver, "coordinator", traceId, rpc);
    } catch (const Error&) {
      return false;
    }
    std::size_t scatters = 0;
    std::set<std::string> scanNodes;
    bool root = false;
    for (const auto& s : spans) {
      if (s.name == "broker.private_search") root = true;
      if (s.name == "broker.pss.scatter") ++scatters;
      if (s.name == "historical.pss.slice_search") scanNodes.insert(s.node);
    }
    return root && scatters >= 2 &&
           scanNodes == std::set<std::string>{"hist-a", "hist-b"};
  })) << "coordinator never assembled the full PSS trace; got "
      << spans.size() << " spans";

  const obs::TraceTree tree = obs::assembleTrace(spans);
  EXPECT_EQ(tree.traceId, traceId);
  ASSERT_FALSE(tree.roots.empty());
  const obs::TraceNode* root = nullptr;
  for (const auto& r : tree.roots) {
    if (r.span.name == "broker.private_search") root = &r;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->span.node, "broker");

  // Topology: the root fans out to one scatter per historical slice, and
  // each scatter contains exactly one remote scan on a distinct node.
  std::set<std::string> scanNodes;
  for (const auto& scatter : root->children) {
    ASSERT_EQ(scatter.span.name, "broker.pss.scatter");
    EXPECT_EQ(scatter.span.node, "broker");
    EXPECT_EQ(scatter.wireNs, 0u);  // broker -> broker: no wire hop
    ASSERT_EQ(scatter.children.size(), 1u);
    const obs::TraceNode& scan = scatter.children[0];
    EXPECT_EQ(scan.span.name, "historical.pss.slice_search");
    scanNodes.insert(scan.span.node);
    // A real process hop: the wire share is parent minus child time.
    EXPECT_EQ(scan.wireNs,
              scatter.span.durationNs > scan.span.durationNs
                  ? scatter.span.durationNs - scan.span.durationNs
                  : 0u);
  }
  EXPECT_EQ(scanNodes, (std::set<std::string>{"hist-a", "hist-b"}));

  // Nested timestamps are monotone: all five processes share
  // CLOCK_MONOTONIC on this host, and every child span is causally
  // inside its parent, so starts never precede the parent's start and
  // ends never pass the parent's end (1ms slack for clock granularity).
  constexpr std::uint64_t kSlackNs = 1'000'000;
  const std::function<void(const obs::TraceNode&)> checkNesting =
      [&](const obs::TraceNode& node) {
        for (const auto& child : node.children) {
          EXPECT_GE(child.span.startNs + kSlackNs, node.span.startNs)
              << child.span.name << " starts before " << node.span.name;
          EXPECT_LE(child.span.startNs + child.span.durationNs,
                    node.span.startNs + node.span.durationNs + kSlackNs)
              << child.span.name << " ends after " << node.span.name;
          checkNesting(child);
        }
      };
  checkNesting(*root);

  // The coordinator's /tracez shows the assembled multi-process trace.
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(traceId));
  const std::string tracez =
      httpGet(clock_, coordAdmin, std::string("/tracez?trace=") + hex);
  EXPECT_NE(tracez.find("broker.private_search"), std::string::npos);
  EXPECT_NE(tracez.find("[hist-a]"), std::string::npos);
  EXPECT_NE(tracez.find("[hist-b]"), std::string::npos);

  // --- crash a historical: the partial query lands in the query log ---
  const std::string victim = servedA < servedB ? "hist-a" : "hist-b";
  proc(victim).kill();
  const auto degraded = broker.query(countQuery("ads"));
  EXPECT_TRUE(degraded.partial());
  ASSERT_FALSE(degraded.unreachableSegments.empty());

  // Partial outcomes are always kept, whatever the slow threshold; the
  // record carries the unreachable segments and the moved byte count.
  const std::string queriesz =
      httpBody(httpGet(clock_, brokerAdmin, "/queriesz"));
  EXPECT_NE(queriesz.find("\"partial\":true"), std::string::npos)
      << queriesz;
  EXPECT_NE(queriesz.find("\"unreachable_segments\":[\""),
            std::string::npos)
      << queriesz;
  EXPECT_NE(
      queriesz.find(degraded.unreachableSegments[0].toString()),
      std::string::npos)
      << queriesz;

  // --- graceful shutdown ----------------------------------------------
  for (const auto& name : names_) {
    if (name == victim) continue;
    controlShutdown(driver, name);
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == victim) continue;
    const int status = procs_[i].wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << names_[i] << " exited with status " << status;
  }
}

// Elastic membership across real processes (DESIGN.md §13): the cluster
// scales 2 -> 8 historicals at runtime — the joiners know only the
// substrate; no static wiring anywhere names them — then drains back to
// 2 via the decommission control verb. Query and PSS load runs the whole
// time; not a single request may be dropped, and every drained process
// must exit 0 on its own once its segments are re-replicated.
TEST_F(MultiprocessClusterTest, ElasticScaleOutAndDrainUnderLoad) {
  std::uint16_t coordPort = 0;
  NetTransport driver(clock_);
  driver.start();
  ASSERT_TRUE(bootCluster(
      driver, 4, {"coordinator", "hist-a", "hist-b", "broker"},
      [&](const std::vector<std::uint16_t>& ports) {
        coordPort = ports[0];
        const Wiring wiring = {
            {"substrate", coordPort},
            {"coordinator", coordPort},
            {"hist-a", ports[1]},
            {"hist-b", ports[2]},
            {"broker", ports[3]},
        };
        spawnRole("coordinator", "coordinator", coordPort, wiring);
        spawnRole("historical", "hist-a", ports[1], wiring);
        spawnRole("historical", "hist-b", ports[2], wiring);
        // Cache off: every query below must hit the live timeline, so a
        // lost segment can never hide behind a cached serve.
        spawnRole("broker", "broker", ports[3], wiring,
                  {"--broker-cache", "0"});
        return wiring;
      }));

  cluster::RpcPolicy rpc;
  rpc.maxAttempts = 3;
  rpc.initialBackoffMs = 50;
  rpc.deadlineMs = 4'000;

  // --- publish 8 segments onto the 2-node cluster ---------------------
  RemoteMetaStore metaStore(driver, kSubstrateNode, rpc);
  RemoteDeepStorage deepStorage(driver, kSubstrateNode, rpc);
  storage::AdTechConfig config;
  config.rowsPerSegment = 120;
  const auto segments = storage::generateAdTechSegments(config, "ads", 8);
  for (const auto& segment : segments) {
    const std::string key = segment->id().toString();
    deepStorage.put(key, storage::encodeSegment(*segment));
    cluster::SegmentRecord record;
    record.id = segment->id();
    record.deepStorageKey = key;
    record.sizeBytes = segment->memoryFootprint();
    metaStore.upsertSegment(record);
  }
  ASSERT_TRUE(eventually([&] {
    return controlServedSegments(driver, "hist-a").size() +
               controlServedSegments(driver, "hist-b").size() ==
           8;
  })) << "segments never got served";

  // --- continuous load: one query per poll iteration -------------------
  cluster::RemoteBroker broker(driver, "broker", rpc);
  std::size_t dropped = 0;
  std::size_t answered = 0;
  std::size_t fullAnswers = 0;
  const auto loadQuery = [&] {
    try {
      const auto outcome = broker.query(countQuery("ads"));
      ++answered;
      const double cnt =
          outcome.rows.empty() ? 0.0 : outcome.rows[0].values[0];
      // Never silently wrong: whole segments only, never above the full
      // answer; shortfalls must be annotated partial.
      EXPECT_EQ(static_cast<long long>(cnt) % 120, 0);
      EXPECT_LE(cnt, 8 * 120.0);
      if (!outcome.partial() && cnt == 8 * 120.0) ++fullAnswers;
    } catch (const Error& e) {
      ++dropped;
      ADD_FAILURE() << "query dropped during membership churn: " << e.what();
    }
  };

  // PSS rides along on the two permanent nodes.
  const pss::Dictionary dict({"breach", "leak", "malware", "normal",
                              "virus"});
  const pss::SearchParams params{
      .bufferLength = 8, .indexBufferLength = 256, .bloomHashes = 5};
  pss::PrivateSearchClient client(dict, params, 128, 4242);
  std::vector<std::string> docs;
  for (int i = 0; i < 40; ++i) {
    docs.push_back("routine log line " + std::to_string(i));
  }
  docs[4] = "virus detected on host four";
  docs[31] = "worm malware combo on host x";
  controlLoadDocuments(driver, "hist-a", "seclog", 0,
                       {docs.begin(), docs.begin() + 20});
  controlLoadDocuments(driver, "hist-b", "seclog", 20,
                       {docs.begin() + 20, docs.end()});
  const auto pssSearch = [&] {
    const auto recovered = cluster::runDistributedPrivateSearch(
        broker, client, "seclog", {"virus", "malware"});
    std::set<std::uint64_t> indices;
    for (const auto& r : recovered) indices.insert(r.index);
    EXPECT_EQ(indices, (std::set<std::uint64_t>{4, 31}));
    for (const auto& r : recovered) EXPECT_EQ(r.payload, docs[r.index]);
  };
  pssSearch();  // baseline on the 2-node cluster

  // --- runtime scale-out: six joiners, substrate wiring only -----------
  std::vector<std::string> joiners;
  const Wiring joinerWiring = {{"substrate", coordPort},
                               {"coordinator", coordPort}};
  const std::vector<std::uint16_t> joinerPorts = freePorts(6);
  for (int i = 2; i < 8; ++i) {
    const std::string name = "hist-" + std::to_string(i);
    const std::uint16_t port = joinerPorts[i - 2];
    // The joiner announces its own endpoint; the broker and coordinator
    // resolve routes to it from the announcement, not from static wiring.
    spawnRole("historical", name, port, joinerWiring);
    driver.addPeer(name + ".ctl", "127.0.0.1:" + std::to_string(port));
    joiners.push_back(name);
  }
  for (const auto& name : joiners) ASSERT_TRUE(awaitReady(driver, name));

  // The throttled rebalancer spreads the 8 segments one per node, with
  // queries answering throughout.
  std::vector<std::string> allNodes = {"hist-a", "hist-b"};
  allNodes.insert(allNodes.end(), joiners.begin(), joiners.end());
  ASSERT_TRUE(eventually(
      [&] {
        loadQuery();
        for (const auto& name : allNodes) {
          if (controlServedSegments(driver, name).size() != 1) return false;
        }
        return true;
      },
      60'000))
      << "rebalancer never spread 8 segments across 8 nodes";
  pssSearch();  // under the scaled topology

  // --- graceful drain back to 2 ----------------------------------------
  controlDecommission(driver, joiners[0]);
  const auto drainState = controlDrainState(driver, joiners[0]);
  EXPECT_TRUE(drainState.draining);
  for (std::size_t i = 1; i < joiners.size(); ++i) {
    controlDecommission(driver, joiners[i]);
  }
  ASSERT_TRUE(eventually(
      [&] {
        loadQuery();
        return controlServedSegments(driver, "hist-a").size() +
                   controlServedSegments(driver, "hist-b").size() ==
               8;
      },
      60'000))
      << "drained segments never re-replicated to the permanent nodes";

  // Every drained process deregisters and exits 0 by itself.
  std::set<std::string> reaped;
  for (const auto& name : joiners) {
    const int status = proc(name).wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << name << " exited with status " << status;
    reaped.insert(name);
  }

  pssSearch();  // back on the 2-node cluster
  ASSERT_TRUE(eventually([&] {
    const auto settled = broker.query(countQuery("ads"));
    return !settled.partial() && settled.rows.size() == 1 &&
           settled.rows[0].values[0] == 8 * 120.0;
  })) << "cluster never settled to a full answer after the drain";

  EXPECT_EQ(dropped, 0u) << "of " << answered + dropped
                         << " queries during churn";
  EXPECT_GT(fullAnswers, 0u);

  // --- graceful shutdown ------------------------------------------------
  for (const auto& name : names_) {
    if (reaped.count(name) > 0) continue;
    controlShutdown(driver, name);
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (reaped.count(names_[i]) > 0) continue;
    const int status = procs_[i].wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << names_[i] << " exited with status " << status;
  }
}

// Standing subscriptions across real processes (DESIGN.md §14): eight
// concurrent standing queries registered at the broker process fan out to
// two realtime processes over TCP and match continuous ingest; encrypted
// snapshots flow back and reconstruct incrementally at the driver. One
// realtime process is SIGKILLed mid-stream and restarted — its local
// queue dies with it, so the producer replays the log from the start and
// the client's (node, offset) dedup collapses the overlap, exactly the
// replay contract the in-process crash tests prove. A historical process
// joins at runtime halfway through; deliveries continue throughout. At
// the end every matching event reconstructs exactly once.
TEST_F(MultiprocessClusterTest, StandingSubscriptionsSurviveKillAndJoin) {
  std::uint16_t coordPort = 0;
  std::uint16_t rt0Port = 0;
  std::uint16_t rt0Admin = 0;
  std::uint16_t rt1Admin = 0;
  std::uint16_t brokerAdmin = 0;
  Wiring wiring;
  std::vector<std::string> rt0Flags;
  NetTransport driver(clock_);
  driver.start();
  ASSERT_TRUE(bootCluster(
      driver, 7, {"coordinator", "rt-0", "rt-1", "broker"},
      [&](const std::vector<std::uint16_t>& ports) {
        coordPort = ports[0];
        rt0Port = ports[1];
        rt0Admin = ports[4];
        rt1Admin = ports[5];
        brokerAdmin = ports[6];
        wiring = {
            {"substrate", coordPort},
            {"coordinator", coordPort},
            {"rt-0", rt0Port},
            {"rt-1", ports[2]},
            {"broker", ports[3]},
        };
        rt0Flags = {"--data-source", "rt-events", "--admin-port",
                    std::to_string(rt0Admin), "--trace-sink", ""};
        spawnRole("coordinator", "coordinator", coordPort, wiring);
        spawnRole("realtime", "rt-0", rt0Port, wiring, rt0Flags);
        spawnRole("realtime", "rt-1", ports[2], wiring,
                  {"--data-source", "rt-events", "--admin-port",
                   std::to_string(rt1Admin), "--trace-sink", ""});
        spawnRole("broker", "broker", ports[3], wiring,
                  {"--broker-cache", "0", "--admin-port",
                   std::to_string(brokerAdmin), "--trace-sink", ""});
        return wiring;
      }));

  cluster::RpcPolicy rpc;
  rpc.maxAttempts = 3;
  rpc.initialBackoffMs = 50;
  rpc.deadlineMs = 4'000;

  // --- register 8 standing queries, one per publisher ------------------
  std::vector<std::string> pubs;
  for (int i = 0; i < 8; ++i) pubs.push_back("pub" + std::to_string(i));
  const pss::Dictionary dict({pubs.begin(), pubs.end()});
  const pss::SearchParams params{
      .bufferLength = 16, .indexBufferLength = 256, .bloomHashes = 5};
  pss::PrivateSearchClient search(dict, params, 128, 4242);
  cluster::SubscriptionClient subs(driver, "broker", search, rpc);
  pss::SnapshotPolicy policy;
  policy.periodMs = 200;  // ticks run at 25ms wall time: seals fast
  policy.maxDocuments = 8;
  std::vector<pss::SubscriptionId> ids;
  for (const auto& pub : pubs) {
    ids.push_back(subs.subscribe({pub}, "rt-events", 8, policy));
  }

  // Fan-out readiness: both realtime processes host all 8 (the broker's
  // own 500ms reconcile loop repairs any registration RPC that raced the
  // node's announcement).
  const auto hostedSubscriptions = [&](std::uint16_t adminPort) {
    std::string body;
    try {
      body = httpBody(httpGet(clock_, adminPort, "/statusz"));
    } catch (const Error&) {
      return std::size_t{0};
    }
    std::size_t count = 0;
    for (std::size_t at = body.find("{\"id\":"); at != std::string::npos;
         at = body.find("{\"id\":", at + 1)) {
      ++count;
    }
    return count;
  };
  ASSERT_TRUE(eventually([&] {
    return hostedSubscriptions(rt0Admin) == 8 &&
           hostedSubscriptions(rt1Admin) == 8;
  })) << "standing queries never fanned out to both realtime processes";
  // The broker's own /statusz lists the registry for dpss_dump.py.
  const std::string brokerStatus =
      httpBody(httpGet(clock_, brokerAdmin, "/statusz"));
  EXPECT_NE(brokerStatus.find("\"subscriptions\":["), std::string::npos);
  EXPECT_NE(brokerStatus.find("\"doc_source\":\"rt-events\""),
            std::string::npos);

  // --- continuous ingest with an expected-delivery ledger ---------------
  // Each produced event names one publisher; the ledger records, per
  // standing query, every payload that must eventually reconstruct. The
  // producer keeps per-node logs so a killed node's queue can be replayed.
  std::vector<std::multiset<std::string>> expected(ids.size());
  std::vector<std::string> log0, log1;
  int eventSeq = 0;
  const auto produce = [&](const std::string& node, int count) {
    std::vector<std::string> batch;
    for (int i = 0; i < count; ++i, ++eventSeq) {
      storage::InputRow row;
      row.timestamp = clock_.nowMs();
      row.dimensions = {pubs[eventSeq % 8], "us"};
      row.metrics = {double(eventSeq), 0.0};
      const std::string payload = storage::encodeInputRow(row);
      batch.push_back(payload);
      expected[eventSeq % 8].insert(payload);
      (node == "rt-0" ? log0 : log1).push_back(payload);
    }
    controlIngest(driver, node, batch);
  };
  // Polls every standing query until each one's ledger is fully
  // reconstructed (multiset equality: exactly once, no duplicates).
  const auto allDelivered = [&] {
    return eventually([&] {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        subs.poll(ids[i]);
        std::multiset<std::string> got;
        for (const auto& doc : subs.documents(ids[i])) {
          got.insert(dpss::test::plaintext(doc.payload));
        }
        if (got != expected[i]) return false;
      }
      return true;
    });
  };

  produce("rt-0", 16);
  produce("rt-1", 16);
  ASSERT_TRUE(allDelivered()) << "phase 1 deliveries never completed";

  // --- SIGKILL one realtime process mid-stream --------------------------
  proc("rt-0").kill();
  // Deliveries from the survivor continue while rt-0 is down; the broker
  // collect loop skips the unreachable node instead of failing the poll.
  produce("rt-1", 16);
  ASSERT_TRUE(allDelivered()) << "survivor deliveries stalled during outage";

  // --- runtime historical join (subscriptions keep flowing) -------------
  const std::uint16_t histPort = freePorts(1)[0];
  spawnRole("historical", "hist-x", histPort,
            {{"substrate", coordPort}, {"coordinator", coordPort}},
            {"--trace-sink", ""});
  driver.addPeer("hist-x.ctl", "127.0.0.1:" + std::to_string(histPort));
  ASSERT_TRUE(awaitReady(driver, "hist-x"));
  RemoteMetaStore metaStore(driver, kSubstrateNode, rpc);
  RemoteDeepStorage deepStorage(driver, kSubstrateNode, rpc);
  storage::AdTechConfig config;
  config.rowsPerSegment = 120;
  const auto segments = storage::generateAdTechSegments(config, "ads", 2);
  for (const auto& segment : segments) {
    const std::string key = segment->id().toString();
    deepStorage.put(key, storage::encodeSegment(*segment));
    cluster::SegmentRecord record;
    record.id = segment->id();
    record.deepStorageKey = key;
    record.sizeBytes = segment->memoryFootprint();
    metaStore.upsertSegment(record);
  }
  ASSERT_TRUE(eventually([&] {
    return controlServedSegments(driver, "hist-x").size() == 2;
  })) << "runtime joiner never served the published segments";

  // --- restart the killed node ------------------------------------------
  // Same name, same port: static routes stay valid. The process comes
  // back empty (its queue and subscription state died with it); the
  // broker's reconcile loop re-attaches all 8 standing queries.
  spawnRole("realtime", "rt-0", rt0Port, wiring, rt0Flags);
  ASSERT_TRUE(awaitReady(driver, "rt-0"));
  ASSERT_TRUE(eventually([&] { return hostedSubscriptions(rt0Admin) == 8; }))
      << "reconcile never re-attached the standing queries after restart";

  // Replay rt-0's log from the start, then keep producing. Replayed
  // events land on the same (node, offset) keys the client has already
  // reconstructed, so dedup delivers nothing twice; the new events follow
  // at higher offsets.
  const std::vector<std::string> replay = log0;
  controlIngest(driver, "rt-0", replay);
  produce("rt-0", 16);
  produce("rt-1", 8);
  ASSERT_TRUE(allDelivered())
      << "post-restart deliveries never completed (replay + new events)";

  // Every reconstructed document is a genuine match with a solvable
  // snapshot: nothing unsolvable, nothing delivered for the wrong word.
  EXPECT_EQ(subs.snapshotsUnsolvable(), 0u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (const auto& doc : subs.documents(ids[i])) {
      EXPECT_GE(doc.cValue, 1u);
    }
    EXPECT_GT(subs.snapshotsApplied(ids[i]), 0u) << "subscription " << i;
  }

  // Unsubscribe one query: its hosts drop it; the other seven live on.
  subs.unsubscribe(ids[0]);
  ASSERT_TRUE(eventually([&] {
    return hostedSubscriptions(rt0Admin) == 7 &&
           hostedSubscriptions(rt1Admin) == 7;
  })) << "unsubscribe never retired the standing query on the hosts";

  // --- graceful shutdown -------------------------------------------------
  // procs_[1] is the SIGKILLed first rt-0 incarnation; the control
  // shutdown reaches the restarted one through the same name/port.
  for (const auto& name :
       {"coordinator", "rt-0", "rt-1", "broker", "hist-x"}) {
    controlShutdown(driver, name);
  }
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    if (i == 1) continue;
    const int status = procs_[i].wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << names_[i] << " exited with status " << status;
  }
}

// Coordinator failover (DESIGN.md §13): the substrates live in their own
// process, two coordinators elect a leader through the registry, and the
// leader is SIGKILLed mid-drain. The standby must take over within the
// lease, finish the drain under its own epoch (load-before-drop survives
// the leader change), assign segments published after the failover, and
// keep every query answering.
TEST_F(MultiprocessClusterTest, CoordinatorFailoverOnLeaderKill) {
  std::uint16_t adminA = 0;
  std::uint16_t adminB = 0;
  NetTransport driver(clock_);
  driver.start();
  ASSERT_TRUE(bootCluster(
      driver, 8,
      {"substrate", "coord-a", "coord-b", "hist-a", "hist-b", "broker"},
      [&](const std::vector<std::uint16_t>& ports) {
        adminA = ports[6];
        adminB = ports[7];
        const Wiring wiring = {
            {"substrate", ports[0]}, {"coord-a", ports[1]},
            {"coord-b", ports[2]},   {"hist-a", ports[3]},
            {"hist-b", ports[4]},    {"broker", ports[5]},
        };
        spawnRole("substrate", "substrate", ports[0], wiring);
        spawnRole("coordinator", "coord-a", ports[1], wiring,
                  {"--admin-port", std::to_string(adminA)});
        spawnRole("coordinator", "coord-b", ports[2], wiring,
                  {"--admin-port", std::to_string(adminB)});
        // No process is named "coordinator" here, so span shipping has no
        // sink; switch it off rather than letting every tick burn a
        // failed call.
        spawnRole("historical", "hist-a", ports[3], wiring,
                  {"--trace-sink", ""});
        spawnRole("historical", "hist-b", ports[4], wiring,
                  {"--trace-sink", ""});
        spawnRole("broker", "broker", ports[5], wiring,
                  {"--broker-cache", "0", "--trace-sink", ""});
        return wiring;
      }));

  cluster::RpcPolicy rpc;
  rpc.maxAttempts = 3;
  rpc.initialBackoffMs = 50;
  rpc.deadlineMs = 4'000;

  // --- publish 4 of 6 segments; one coordinator assigns them -----------
  RemoteMetaStore metaStore(driver, kSubstrateNode, rpc);
  RemoteDeepStorage deepStorage(driver, kSubstrateNode, rpc);
  storage::AdTechConfig config;
  config.rowsPerSegment = 120;
  const auto segments = storage::generateAdTechSegments(config, "ads", 6);
  const auto publish = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const std::string key = segments[i]->id().toString();
      deepStorage.put(key, storage::encodeSegment(*segments[i]));
      cluster::SegmentRecord record;
      record.id = segments[i]->id();
      record.deepStorageKey = key;
      record.sizeBytes = segments[i]->memoryFootprint();
      metaStore.upsertSegment(record);
    }
  };
  publish(0, 4);
  ASSERT_TRUE(eventually([&] {
    return controlServedSegments(driver, "hist-a").size() +
               controlServedSegments(driver, "hist-b").size() ==
           4;
  })) << "no coordinator ever assigned the segments";

  cluster::RemoteBroker broker(driver, "broker", rpc);
  // The broker's timeline lags the announcements by a mirror sync; poll
  // until it sees the full pre-failover answer.
  ASSERT_TRUE(eventually([&] {
    const auto first = broker.query(countQuery("ads"));
    return !first.partial() && first.rows.size() == 1 &&
           first.rows[0].values[0] == 4 * 120.0;
  })) << "broker never saw the pre-failover timeline";

  // --- find the leader through /statusz ---------------------------------
  const auto statusz = [&](std::uint16_t port) -> std::string {
    try {
      return httpBody(httpGet(clock_, port, "/statusz"));
    } catch (const Error&) {
      return "";
    }
  };
  const auto isLeader = [&](std::uint16_t port) {
    return statusz(port).find("\"leader\":true") != std::string::npos;
  };
  ASSERT_TRUE(eventually([&] { return isLeader(adminA) || isLeader(adminB); }))
      << "no coordinator ever took leadership";
  const bool aLeads = isLeader(adminA);
  const std::string leader = aLeads ? "coord-a" : "coord-b";
  const std::uint16_t standbyAdmin = aLeads ? adminB : adminA;
  EXPECT_FALSE(isLeader(standbyAdmin)) << "split brain: two leaders";

  // --- SIGKILL the leader mid-drain -------------------------------------
  // The drain gives the new leader inherited work: re-replicate hist-b's
  // segments to hist-a, then drop them (load-before-drop holds across the
  // leader change), then flip the drain complete.
  controlDecommission(driver, "hist-b");
  proc(leader).kill();

  ASSERT_TRUE(eventually([&] { return isLeader(standbyAdmin); }, 20'000))
      << "standby never took over after the leader was killed";
  // The new leader fenced itself in with a strictly larger epoch.
  const std::string standbyStatus = statusz(standbyAdmin);
  const auto epochAt = standbyStatus.find("\"epoch\":");
  ASSERT_NE(epochAt, std::string::npos) << standbyStatus;
  EXPECT_GE(std::atoi(standbyStatus.c_str() + epochAt + 8), 2)
      << standbyStatus;

  // The inherited drain finishes: hist-a serves everything, hist-b exits.
  ASSERT_TRUE(eventually(
      [&] { return controlServedSegments(driver, "hist-a").size() == 4; },
      30'000))
      << "the new leader never finished the inherited drain";
  {
    const int status = proc("hist-b").wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "hist-b exited with status " << status;
  }

  // --- post-failover work: new segments land under the new epoch --------
  publish(4, 6);
  ASSERT_TRUE(eventually(
      [&] { return controlServedSegments(driver, "hist-a").size() == 6; },
      30'000))
      << "the new leader never assigned the post-failover segments";
  ASSERT_TRUE(eventually([&] {
    const auto healed = broker.query(countQuery("ads"));
    return !healed.partial() && healed.rows.size() == 1 &&
           healed.rows[0].values[0] == 6 * 120.0;
  })) << "broker never saw the post-failover timeline";

  // --- graceful shutdown ------------------------------------------------
  const std::set<std::string> gone = {leader, "hist-b"};
  for (const auto& name : names_) {
    if (gone.count(name) > 0) continue;
    controlShutdown(driver, name);
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (gone.count(names_[i]) > 0) continue;
    const int status = procs_[i].wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << names_[i] << " exited with status " << status;
  }
}

}  // namespace
}  // namespace dpss::net
