#include "cluster/cluster.h"

#include <set>

#include "common/error.h"
#include "storage/segment_codec.h"

namespace dpss::cluster {

Cluster::Cluster(Clock& clock, ClusterOptions options)
    : clock_(clock), options_(options), transport_(clock) {
  metaStore_.setDefaultRules(options_.defaultRules);
  deepStorage_.setClock(&clock_);  // serves injected slow-read delays
  for (std::size_t i = 0; i < options_.historicalNodes; ++i) {
    addHistoricalNode();
  }
  broker_ = std::make_unique<BrokerNode>(
      "broker", registry_, transport_,
      BrokerOptions{.scatterThreads = options_.brokerScatterThreads,
                    .resultCacheCapacity = options_.brokerCacheCapacity,
                    .rpcPolicy = options_.rpcPolicy,
                    .pssPackFactor = options_.pssPackFactor});
  broker_->start();
  subscriptionBroker_ = std::make_unique<SubscriptionBroker>(
      registry_, metaStore_, transport_,
      SubscriptionBrokerOptions{.rpc = options_.rpcPolicy});
  broker_->attachSubscriptions(subscriptionBroker_.get());
  coordinator_ = std::make_unique<CoordinatorNode>(
      "coordinator", registry_, metaStore_, clock_, options_.coordinator);
}

Cluster::~Cluster() {
  // Stop brokers first so no queries race node teardown.
  if (broker_) broker_->stop();
  for (auto& slot : realtimes_impl_) {
    if (slot.node) slot.node->stop();
  }
  for (auto& h : historicals_) {
    if (h) h->stop();
  }
}

std::size_t Cluster::addHistoricalNode() {
  const std::size_t index = historicals_.size();
  HistoricalNodeOptions nodeOptions;
  nodeOptions.workerThreads = options_.workerThreadsPerNode;
  auto node = std::make_unique<HistoricalNode>(
      "historical-" + std::to_string(index), registry_, deepStorage_,
      transport_, nodeOptions);
  node->start();
  historicals_.push_back(std::move(node));
  return index;
}

std::size_t Cluster::addRealtimeNode(const std::string& topic,
                                     std::size_t partition,
                                     const storage::Schema& schema,
                                     const std::string& dataSource,
                                     RealtimeNodeOptions options) {
  const std::size_t index = realtimes_impl_.size();
  RealtimeSlot slot;
  slot.disk = std::make_unique<NodeDisk>();
  slot.topic = topic;
  slot.partition = partition;
  slot.schema = schema;
  slot.dataSource = dataSource;
  slot.options = options;
  slot.name = "realtime-" + std::to_string(index);
  slot.node = std::make_unique<RealtimeNode>(
      slot.name, registry_, queue_, topic, partition, deepStorage_,
      metaStore_, transport_, clock_, schema, dataSource, *slot.disk,
      options);
  slot.node->start();
  realtimes_impl_.push_back(std::move(slot));
  realtimes_.push_back(realtimes_impl_.back().node.get());
  return index;
}

void Cluster::crashRealtime(std::size_t i) {
  realtimes_impl_.at(i).node->crash();
}

void Cluster::restartRealtime(std::size_t i) {
  auto& slot = realtimes_impl_.at(i);
  slot.node->crash();
  slot.node = std::make_unique<RealtimeNode>(
      slot.name, registry_, queue_, slot.topic, slot.partition, deepStorage_,
      metaStore_, transport_, clock_, slot.schema, slot.dataSource,
      *slot.disk, slot.options);
  slot.node->start();
  realtimes_[i] = slot.node.get();
}

void Cluster::publishSegments(
    const std::vector<storage::SegmentPtr>& segments) {
  for (const auto& segment : segments) {
    const std::string key = segment->id().toString();
    deepStorage_.put(key, storage::encodeSegment(*segment));
    SegmentRecord record;
    record.id = segment->id();
    record.deepStorageKey = key;
    record.sizeBytes = segment->memoryFootprint();
    metaStore_.upsertSegment(record);
  }
  converge();
}

void Cluster::converge(int maxCycles) {
  for (int i = 0; i < maxCycles; ++i) {
    const auto stats = coordinator_->runOnce();
    if (stats.loadsIssued == 0 && stats.dropsIssued == 0) return;
  }
}

ClusterStats Cluster::collectStats(std::uint64_t traceIdFilter) {
  ClusterStats cluster;
  auto add = [&](const std::string& name, obs::MetricsRegistry& registry) {
    NodeStats& stats = cluster.nodes[name];
    stats.metrics = registry.snapshot();
    stats.spans = traceIdFilter != 0
                      ? registry.spans().forTrace(traceIdFilter)
                      : registry.spans().all();
  };
  if (broker_->running()) add(broker_->name(), broker_->metrics());
  for (auto& h : historicals_) {
    if (h->running()) add(h->name(), h->metrics());
  }
  for (RealtimeNode* r : realtimes_) {
    if (r->running()) add(r->name(), r->metrics());
  }
  return cluster;
}

std::uint64_t ClusterStats::counterTotal(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto& [node, stats] : nodes) {
    (void)node;
    total += stats.metrics.counterValue(name);
  }
  return total;
}

std::uint64_t ClusterStats::histogramCountTotal(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto& [node, stats] : nodes) {
    (void)node;
    total += stats.metrics.histogramCount(name);
  }
  return total;
}

std::vector<obs::Span> ClusterStats::allSpans() const {
  std::vector<obs::Span> out;
  for (const auto& [node, stats] : nodes) {
    (void)node;
    out.insert(out.end(), stats.spans.begin(), stats.spans.end());
  }
  return out;
}

std::vector<std::string> ClusterStats::nodesInTrace(
    std::uint64_t traceId) const {
  std::set<std::string> seen;
  for (const auto& [node, stats] : nodes) {
    (void)node;
    for (const auto& s : stats.spans) {
      if (s.traceId == traceId) seen.insert(s.node);
    }
  }
  return {seen.begin(), seen.end()};
}

}  // namespace dpss::cluster
