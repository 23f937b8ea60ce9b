// Broker node (§III-A-3) — query router, result merger, result cache,
// and (§III-C) the entry point of the private search scheme.
//
// The broker builds its global view from the registry: which queryable
// nodes exist and which segments each serves. Per data source it derives
// the versioned timeline (query/timeline.h), picks a replica for every
// visible segment (rotating across replicas) and sends each chosen node
// one RPC listing all of its segments. Segments a node no longer serves,
// and all segments of an unreachable node, go to their next replicas,
// again one RPC per node. The broker then merges the per-segment
// partials in timeline order and finalizes.
//
// The result cache keys on (segment id, query fingerprint). When every
// replica of a segment is unreachable, a cached partial still answers —
// the paper's "if the information has already been stored in the cache,
// the segment results can still be returned".
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/registry.h"
#include "cluster/rpc_policy.h"
#include "cluster/search_broker.h"
#include "cluster/transport.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "pss/query.h"
#include "pss/searcher.h"
#include "query/result.h"
#include "query/timeline.h"

namespace dpss::cluster {

class SubscriptionBroker;

struct BrokerOptions {
  std::size_t scatterThreads = 16;   // parallel scatter RPCs, one per node
  std::size_t resultCacheCapacity = 4096;  // cached (segment, query) entries
  /// Retry/backoff/deadline policy for every outbound RPC (segment
  /// scatter, PSS info/search probes).
  RpcPolicy rpcPolicy{};
  /// Queries at or above this duration are always kept in the slow-query
  /// log (partials and errors are kept regardless); 0 keeps every query.
  TimeMs slowQueryMs = 500;
};

struct BrokerQueryOutcome {
  std::vector<query::ResultRow> rows;
  std::uint64_t rowsScanned = 0;
  std::size_t segmentsQueried = 0;
  std::size_t cacheHits = 0;
  std::size_t servedFromCacheAfterLoss = 0;
  /// Segments with no reachable replica and no cached partial. Non-empty
  /// means `rows` is a partial answer (graceful degradation: a strict
  /// minority of segments may be missing; losing half or more throws
  /// Unavailable instead).
  std::vector<storage::SegmentId> unreachableSegments;
  /// Trace id of this query's span tree (cumulative totals live in the
  /// broker's obs::MetricsRegistry, not here).
  std::uint64_t traceId = 0;

  bool partial() const { return !unreachableSegments.empty(); }
};

class BrokerNode : public PrivateSearchBroker {
 public:
  BrokerNode(std::string name, Registry& registry, TransportIface& transport,
             BrokerOptions options = {});
  ~BrokerNode();

  void start();
  void stop();

  const std::string& name() const { return name_; }
  bool running() const {
    MutexLock lock(mu_);
    return running_;
  }

  /// Routes, scatters, merges and finalizes one query. When a strict
  /// minority of the visible segments has no reachable replica and no
  /// cached result, returns a partial outcome annotated with the
  /// unreachable segments; when half or more are lost (or the broker is
  /// stopped) throws Unavailable.
  BrokerQueryOutcome query(const query::QuerySpec& spec);

  /// Runs the paper's private stream search over a distributed document
  /// source: every node announcing a slice of `docSource` searches its
  /// slice in parallel with the client's encrypted query; the returned
  /// envelopes (one per slice) go back to the client for reconstruction.
  /// `traceIdOut`, when non-null, receives the search's trace id.
  std::vector<pss::SearchResultEnvelope> privateSearch(
      const std::string& docSource, const pss::Dictionary& dictionary,
      const pss::EncryptedQuery& encryptedQuery,
      std::uint64_t* traceIdOut = nullptr) override;

  /// This node's metrics + span store.
  obs::MetricsRegistry& metrics() { return obs_; }

  /// Attaches the subscription plane: kSubscribe/kUnsubscribe/kSnapshot
  /// requests are forwarded to `broker` (which must outlive this node or
  /// be detached with nullptr first). Unattached brokers reject the verbs.
  void attachSubscriptions(SubscriptionBroker* broker) {
    MutexLock lock(mu_);
    subscriptions_ = broker;
  }

  /// Whether the broker still holds a live registry session (/healthz).
  bool registryLeaseActive() const {
    MutexLock lock(mu_);
    return session_ != nullptr && !session_->expired();
  }

  /// The clock RPC deadlines and retry backoff run on (the transport's).
  Clock& clock() override { return transport_.clock(); }

  /// Current global view, for tests: data source -> timeline.
  std::vector<storage::SegmentId> visibleSegments(
      const std::string& dataSource, const Interval& interval);

 private:
  struct View {
    // segment -> nodes serving it.
    std::map<storage::SegmentId, std::set<std::string>> serving;
    // data source -> timeline.
    std::map<std::string, query::Timeline> timelines;
  };

  View buildView() DPSS_REQUIRES(mu_);
  void invalidateView() DPSS_EXCLUDES(mu_);

  std::string name_;
  Registry& registry_;
  TransportIface& transport_;
  BrokerOptions options_;
  obs::MetricsRegistry obs_{name_};

  // Lock order: broker mutex before registry mutex — start()/buildView()
  // call into the registry (connect, children, watchChildren) with mu_
  // held; the registry never calls back out under its lock (watches fire
  // post-mutation, unlocked), so the inverse order cannot occur.
  mutable Mutex mu_ DPSS_ACQUIRED_BEFORE(registry_.internalMutex());
  SessionPtr session_ DPSS_GUARDED_BY(mu_);
  bool running_ DPSS_GUARDED_BY(mu_) = false;
  bool viewDirty_ DPSS_GUARDED_BY(mu_) = true;
  SubscriptionBroker* subscriptions_ DPSS_GUARDED_BY(mu_) = nullptr;
  View view_ DPSS_GUARDED_BY(mu_);
  std::vector<std::uint64_t> watchIds_ DPSS_GUARDED_BY(mu_);
  // node paths already watched
  std::set<std::string> nodeWatches_ DPSS_GUARDED_BY(mu_);
  // shared_ptr so queries in flight pin the pool across a concurrent
  // stop(): the same pattern as HistoricalNode::handleRpc (the fix for
  // the stop-mid-query pool race).
  std::shared_ptr<ThreadPool> pool_ DPSS_GUARDED_BY(mu_);
  Rng rng_ DPSS_GUARDED_BY(mu_){0xb20c};

  // LRU result cache: (segment id string + query fingerprint) -> the
  // partial's serialized bytes, merged exactly like an RPC reply.
  struct CacheEntry {
    std::string key;
    std::string partial;
  };
  // front = most recent
  std::list<CacheEntry> cacheList_ DPSS_GUARDED_BY(mu_);
  std::map<std::string, std::list<CacheEntry>::iterator> cacheIndex_
      DPSS_GUARDED_BY(mu_);

  void cachePut(const std::string& key, std::string partial)
      DPSS_EXCLUDES(mu_);
  std::optional<std::string> cacheGet(const std::string& key)
      DPSS_EXCLUDES(mu_);
};

}  // namespace dpss::cluster
