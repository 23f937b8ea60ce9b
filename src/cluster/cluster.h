// Cluster harness: wires the shared substrates (registry, metadata store,
// message queue, deep storage, transport) and manages node lifecycles.
// This is the top-level object examples, tests and benches drive; it is
// the "test cluster" of §IV in miniature.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/broker_node.h"
#include "cluster/coordinator_node.h"
#include "cluster/historical_node.h"
#include "cluster/message_queue.h"
#include "cluster/metastore.h"
#include "cluster/realtime_node.h"
#include "cluster/registry.h"
#include "cluster/subscription_broker.h"
#include "cluster/transport.h"
#include "common/clock.h"
#include "obs/metrics.h"
#include "storage/deep_storage.h"
#include "storage/segment.h"

namespace dpss::cluster {

struct ClusterOptions {
  std::size_t historicalNodes = 2;
  std::size_t workerThreadsPerNode = 15;  // the paper's configuration
  std::size_t brokerScatterThreads = 16;
  std::size_t brokerCacheCapacity = 4096;  // 0 disables the result cache
  LoadRules defaultRules{};  // replication factor 1, keep forever
  /// Retry/backoff/deadline policy for the broker's outbound RPCs.
  RpcPolicy rpcPolicy{};
  /// Rebalancer/throttle knobs forwarded to the coordinator.
  CoordinatorOptions coordinator{};
};

/// One node's observability snapshot: its registry's metrics plus its
/// recorded spans.
struct NodeStats {
  obs::MetricsSnapshot metrics;
  std::vector<obs::Span> spans;
};

/// The assembled cluster view: node name -> that node's stats.
struct ClusterStats {
  std::map<std::string, NodeStats> nodes;

  /// Sum of a counter across all nodes.
  std::uint64_t counterTotal(std::string_view name) const;
  /// Sum of a histogram's observation count across all nodes.
  std::uint64_t histogramCountTotal(std::string_view name) const;
  /// All spans across nodes (each span carries its origin node).
  std::vector<obs::Span> allSpans() const;
  /// Distinct nodes that recorded at least one span of `traceId`.
  std::vector<std::string> nodesInTrace(std::uint64_t traceId) const;
};

class Cluster {
 public:
  /// `clock` must outlive the cluster. All nodes are started.
  Cluster(Clock& clock, ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- substrates -------------------------------------------------------
  Registry& registry() { return registry_; }
  MetaStore& metaStore() { return metaStore_; }
  MessageQueue& messageQueue() { return queue_; }
  storage::MemoryDeepStorage& deepStorage() { return deepStorage_; }
  Transport& transport() { return transport_; }
  Clock& clock() { return clock_; }

  // --- nodes --------------------------------------------------------------
  BrokerNode& broker() { return *broker_; }
  CoordinatorNode& coordinator() { return *coordinator_; }
  /// The broker-side subscription plane (registration, fan-out,
  /// snapshot collection). Already attached to broker().
  SubscriptionBroker& subscriptionBroker() { return *subscriptionBroker_; }
  HistoricalNode& historical(std::size_t i) { return *historicals_.at(i); }
  std::size_t historicalCount() const { return historicals_.size(); }

  /// Adds one more historical node (scale-out); returns its index.
  std::size_t addHistoricalNode();

  /// Creates a real-time node consuming (topic, partition). The node's
  /// disk survives crashes; drive it with realtime(i).tick().
  std::size_t addRealtimeNode(const std::string& topic, std::size_t partition,
                              const storage::Schema& schema,
                              const std::string& dataSource,
                              RealtimeNodeOptions options = {});
  RealtimeNode& realtime(std::size_t i) { return *realtimes_.at(i); }
  std::size_t realtimeCount() const { return realtimes_.size(); }
  /// Crash a real-time node (lossy: un-persisted index dies), leaving it
  /// down until restartRealtime() brings a new instance up over the
  /// surviving disk. The chaos scheduler uses the split form to model
  /// down-time between crash and restart.
  void crashRealtime(std::size_t i);
  /// Crash (if still up) + restart a real-time node over its surviving
  /// disk.
  void restartRealtime(std::size_t i);

  // --- convenience ---------------------------------------------------------
  /// Publishes segments: encode -> deep storage -> segment table ->
  /// coordinator cycle (which assigns them to historical nodes).
  void publishSegments(const std::vector<storage::SegmentPtr>& segments);

  /// Runs coordinator cycles until no new work is issued (stable state).
  void converge(int maxCycles = 10);

  /// Cluster-wide metrics + span snapshot, read straight from the
  /// registry of every running node (broker, historicals, realtimes).
  /// Pass a trace id to restrict spans to one query.
  ClusterStats collectStats(std::uint64_t traceIdFilter = 0);

 private:
  Clock& clock_;
  ClusterOptions options_;
  Registry registry_;
  MetaStore metaStore_;
  MessageQueue queue_;
  storage::MemoryDeepStorage deepStorage_;
  Transport transport_;

  std::vector<std::unique_ptr<HistoricalNode>> historicals_;
  struct RealtimeSlot {
    std::unique_ptr<RealtimeNode> node;
    std::unique_ptr<NodeDisk> disk;
    // Construction parameters retained for restart.
    std::string topic;
    std::size_t partition;
    storage::Schema schema;
    std::string dataSource;
    RealtimeNodeOptions options;
    std::string name;
  };
  std::vector<RealtimeSlot> realtimes_impl_;
  std::vector<RealtimeNode*> realtimes_;
  std::unique_ptr<BrokerNode> broker_;
  std::unique_ptr<SubscriptionBroker> subscriptionBroker_;
  std::unique_ptr<CoordinatorNode> coordinator_;
};

}  // namespace dpss::cluster
