// Historical compute node (§III-A-1) — "the main worker of our system".
//
// Shared-nothing: historical nodes never talk to each other and learn
// about work only through their registry load-queue path. The lifecycle
// per assignment is exactly the paper's: check the local cache first,
// otherwise download the blob from deep storage, decode, then publish the
// served segment under the node's announcement path — at which point the
// segment is queryable.
//
// A query arrives over the transport as one RPC listing every segment
// the broker routed to this node; each listed segment is scanned as its
// own task on the node's bounded worker pool ("one thread scan a
// segment", 15 workers in the paper's test configuration), and the reply
// carries each segment's partial, or a not-served flag, in request order.
//
// For the private-search integration the node can also hold a slice of a
// document stream and run the broker-shipped encrypted query over it,
// returning the three-buffer envelope for its slice.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/registry.h"
#include "cluster/transport.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "pss/dictionary.h"
#include "storage/deep_storage.h"
#include "storage/segment.h"

namespace dpss::cluster {

struct HistoricalNodeOptions {
  std::size_t workerThreads = 15;  // the paper's per-node thread count
  // Reconnect backoff after a registry session expiry (doubles per failed
  // attempt up to the max, measured on the transport's virtual clock).
  TimeMs reregisterBackoffMs = 50;
  TimeMs reregisterBackoffMaxMs = 2000;
  // "host:port" published in the node announcement so peers that did not
  // know this node at startup (runtime scale-out) can resolve a route to
  // it (net::NetTransport's peer resolver). Empty: announce type only.
  std::string advertiseEndpoint;
};

class HistoricalNode {
 public:
  HistoricalNode(std::string name, Registry& registry,
                 storage::DeepStorage& deepStorage, TransportIface& transport,
                 HistoricalNodeOptions options = {});
  ~HistoricalNode();

  HistoricalNode(const HistoricalNode&) = delete;
  HistoricalNode& operator=(const HistoricalNode&) = delete;

  /// Connects the session, announces the node, arms the load-queue watch
  /// and processes any assignments already queued.
  void start();

  /// Graceful stop: unannounces everything and leaves the network.
  void stop();

  /// Simulates a crash: the registry session expires (announcements
  /// vanish) and the node drops off the transport, but the local disk
  /// cache survives for a later restart.
  void crash();

  /// Simulates losing the registry lease (ZK session expiry) while the
  /// node itself keeps running: announcements and served ephemerals
  /// vanish, but the process, pool and transport binding stay up. tick()
  /// re-registers with backoff.
  void loseRegistrySession();

  /// Periodic maintenance: re-registers after a lost registry session,
  /// refreshes drain state (the flag may be written by the coordinator or
  /// a control verb, not just by this node) and re-processes any
  /// load-queue entries that a previous attempt left behind (e.g. a
  /// deep-storage outage). Watch events cover the steady state; tick() is
  /// the recovery path a real node runs on a timer. A substrate outage
  /// (Unavailable) ends the round early: it is counted as
  /// historical.substrate_unavailable and logged, and the next tick
  /// retries.
  void tick();

  // --- graceful drain (decommission; DESIGN.md §13) ---------------------
  /// Enters drain mode: this node refuses new loads (ack-removing them so
  /// the coordinator places the replica elsewhere) while the coordinator
  /// re-replicates its segments and then drops them, load-before-drop.
  /// Persistent flag: a crash mid-drain resumes draining after restart.
  /// Idempotent.
  void requestDrain();
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }
  /// True once the coordinator flipped the flag: nothing served, queue
  /// empty. The node can now stop() — which deregisters the flag.
  bool drainComplete() const {
    return drainComplete_.load(std::memory_order_acquire);
  }

  const std::string& name() const { return name_; }
  bool running() const {
    MutexLock lock(mu_);
    return running_;
  }

  std::vector<storage::SegmentId> servedSegments() const;
  bool serves(const storage::SegmentId& id) const;

  /// Load-queue entries issued to this node and not yet applied (mid
  /// download, or stalled behind a deep-storage outage until the next
  /// tick). Steady state is 0; /statusz reports it for the placement
  /// view.
  std::size_t pendingLoads() const;

  /// Local-disk-cache introspection for tests and the cache ablation.
  bool cachedLocally(const std::string& deepStorageKey) const;
  std::uint64_t deepStorageDownloads() const { return downloads_.load(); }
  std::uint64_t cacheHits() const { return cacheHits_.load(); }

  /// Loads a slice of a private-search document stream (batch path; see
  /// broker_node.h for how slices are discovered and searched).
  void loadDocuments(const std::string& docSource, std::uint64_t baseIndex,
                     std::vector<std::string> documents);

  /// This node's metrics + span store.
  obs::MetricsRegistry& metrics() { return obs_; }

  /// Whether the node still holds a live registry session (/healthz).
  bool registryLeaseActive() const {
    MutexLock lock(mu_);
    return session_ != nullptr && !session_->expired();
  }

 private:
  void maybeReregister();
  void refreshDrainState();
  void onLoadQueueEvent();
  void processAssignment(const std::string& entryName);
  void loadSegment(const storage::SegmentId& id, const std::string& key);
  void dropSegment(const storage::SegmentId& id);
  std::string handleRpc(const std::string& request);

  std::string name_;
  Registry& registry_;
  storage::DeepStorage& deepStorage_;
  TransportIface& transport_;
  HistoricalNodeOptions options_;
  obs::MetricsRegistry obs_{name_};

  // Lock order: historical mutex before registry mutex — announce /
  // reregister paths call the registry with mu_ held (see broker_node.h
  // for why the inverse order cannot occur).
  mutable Mutex mu_ DPSS_ACQUIRED_BEFORE(registry_.internalMutex());
  SessionPtr session_ DPSS_GUARDED_BY(mu_);
  std::uint64_t watchId_ DPSS_GUARDED_BY(mu_) = 0;
  bool running_ DPSS_GUARDED_BY(mu_) = false;
  // Session-expiry recovery state: 0 means "no reconnect scheduled yet".
  TimeMs reregisterNotBeforeMs_ DPSS_GUARDED_BY(mu_) = 0;
  TimeMs reregisterBackoffMs_ DPSS_GUARDED_BY(mu_) =
      options_.reregisterBackoffMs;
  // "Local disk": encoded blobs that survive crash()/start() cycles.
  std::map<std::string, std::string> localDisk_ DPSS_GUARDED_BY(mu_);
  // Decoded, servable segments.
  std::map<storage::SegmentId, storage::SegmentPtr> served_
      DPSS_GUARDED_BY(mu_);
  struct DocSlice {
    std::uint64_t baseIndex = 0;
    std::vector<std::string> documents;
  };
  // docSource -> slice
  std::map<std::string, DocSlice> docSlices_ DPSS_GUARDED_BY(mu_);

  // Shared so an in-flight RPC can pin the pool across a concurrent
  // crash()/stop(): its scan still runs and the pool is destroyed by the
  // last holder, instead of abandoning the task (broken promise) or
  // racing the reset (use-after-free).
  std::shared_ptr<ThreadPool> pool_ DPSS_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> downloads_{0};
  std::atomic<std::uint64_t> cacheHits_{0};
  // Drain state mirrors the /drains/<node> flag (see refreshDrainState);
  // atomics so the assignment path and admin plane read them lock-free.
  std::atomic<bool> draining_{false};
  std::atomic<bool> drainComplete_{false};
};

}  // namespace dpss::cluster
