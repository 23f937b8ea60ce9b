// Real-time compute node (§III-A-2).
//
// Consumes events from the message queue into an in-memory incremental
// index (queryable immediately), persists the index to local disk on a
// period, commits the consumed offset after each persist ("periodically
// committing offsets can reduce the amount of re-scanned data after a
// real-time compute node fails"), and after the segment interval plus a
// window time has passed merges all persisted indexes into a historical
// segment, uploads it to deep storage, registers it in the metadata
// store, and unannounces its own real-time segment once a historical node
// serves the handoff ("there is no data loss").
//
// The node is clock-driven through tick(): the cluster harness (or a
// test) advances the clock and calls tick(), keeping every schedule
// deterministic. Crash/restart is modeled by constructing a new node over
// the same NodeDisk — persisted indexes and the committed queue offset
// are all that survive, exactly as in the paper.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/message_queue.h"
#include "cluster/metastore.h"
#include "cluster/registry.h"
#include "cluster/subscription_host.h"
#include "cluster/transport.h"
#include "common/clock.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/deep_storage.h"
#include "storage/incremental_index.h"

namespace dpss::cluster {

/// The node's local disk: persisted index snapshots per segment interval.
/// Survives crash/restart (held by the harness, not the node).
struct NodeDisk {
  // interval start -> persisted immutable snapshots.
  std::map<TimeMs, std::vector<storage::SegmentPtr>> persisted;
  // Standing-subscription state (specs, snapshot sequence numbers,
  // sealed-but-unacked snapshots). Surviving here is what ties snapshot
  // delivery to the committed-offset recovery contract: a restarted node
  // resumes the same seq space and still holds everything unacked.
  SubscriptionDiskState subscriptions;
};

struct RealtimeNodeOptions {
  TimeMs segmentGranularityMs = 3'600'000;  // hourly real-time segments
  TimeMs persistPeriodMs = 600'000;         // "every 10 minutes"
  TimeMs windowMs = 600'000;                // handoff window time
  TimeMs rollupGranularityMs = 60'000;      // aggregate roll-up bucket
  std::size_t maxPollBatch = 4096;
  // Reconnect backoff after a registry session expiry (doubles per failed
  // attempt up to the max, measured on the node's clock).
  TimeMs reregisterBackoffMs = 50;
  TimeMs reregisterBackoffMaxMs = 2000;
  // Standing-subscription host tuning (the per-subscription cap on
  // unacked snapshots).
  SubscriptionHostOptions subscriptions;
};

class RealtimeNode {
 public:
  RealtimeNode(std::string name, Registry& registry, MessageQueue& queue,
               std::string topic, std::size_t partition,
               storage::DeepStorage& deepStorage, MetaStore& metaStore,
               TransportIface& transport, Clock& clock, storage::Schema schema,
               std::string dataSource, NodeDisk& disk,
               RealtimeNodeOptions options = {});
  ~RealtimeNode();

  RealtimeNode(const RealtimeNode&) = delete;
  RealtimeNode& operator=(const RealtimeNode&) = delete;

  /// Connects, recovers from disk + committed offset, announces.
  void start();

  /// Graceful stop: flushes live indexes to disk and commits the consumed
  /// offset before leaving the network, so a restart resumes without
  /// re-scanning.
  void stop();

  /// Crash: the un-persisted in-memory index is LOST and the committed
  /// offset stays wherever the last persist left it; only disk and the
  /// committed offset survive, so a restart re-consumes the gap from the
  /// message queue (§III-A-2 recovery).
  void crash();

  /// Simulates losing the registry lease (ZK session expiry) while the
  /// node keeps running; tick() re-registers with backoff.
  void loseRegistrySession();

  /// One scheduling round: re-register if the session expired, ingest
  /// available messages, then run persist and handoff if their deadlines
  /// passed. A substrate outage (Unavailable) ends only the step that hit
  /// it — announcing new buckets, or publishing a handoff — and is counted
  /// as realtime.substrate_unavailable and logged; the next tick retries
  /// it.
  void tick();

  const std::string& name() const { return name_; }
  bool running() const {
    MutexLock lock(mu_);
    return running_;
  }
  std::uint64_t eventsIngested() const {
    MutexLock lock(mu_);
    return eventsIngested_;
  }
  std::uint64_t currentOffset() const {
    MutexLock lock(mu_);
    return offset_;
  }
  std::size_t pendingHandoffs() const;
  std::vector<storage::SegmentId> announcedSegments() const;

  /// This node's metrics + span store.
  obs::MetricsRegistry& metrics() { return obs_; }

  /// The node's standing-subscription host (attach/fetch also arrive over
  /// rpc::kSubscribe/kUnsubscribe/kSnapshot; direct access is for tests
  /// and the /statusz subscriptions section).
  SubscriptionHost& subscriptions() { return subsHost_; }
  std::vector<SubscriptionHostStatus> subscriptionStatus() const {
    return subsHost_.status();
  }

  /// Whether the node still holds a live registry session (/healthz).
  bool registryLeaseActive() const {
    MutexLock lock(mu_);
    return session_ != nullptr && !session_->expired();
  }

 private:
  TimeMs bucketStart(TimeMs t) const;
  storage::SegmentId realtimeSegmentId(TimeMs bucket) const;
  void teardown() DPSS_EXCLUDES(mu_);
  void maybeReregister() DPSS_EXCLUDES(mu_);
  void ingest() DPSS_EXCLUDES(mu_);
  void persistIfDue() DPSS_EXCLUDES(mu_);
  void handoffIfDue() DPSS_EXCLUDES(mu_);
  /// Announces every bucket not yet announced; a bucket whose
  /// announcement fails stays pending for the next call.
  void announcePending() DPSS_EXCLUDES(mu_);
  std::string handleRpc(const std::string& request) DPSS_EXCLUDES(mu_);

  std::string name_;
  Registry& registry_;
  MessageQueue& queue_;
  std::string topic_;
  std::size_t partition_;
  storage::DeepStorage& deepStorage_;
  MetaStore& metaStore_;
  TransportIface& transport_;
  Clock& clock_;
  storage::Schema schema_;
  std::string dataSource_;
  NodeDisk& disk_;
  RealtimeNodeOptions options_;
  obs::MetricsRegistry obs_{name_};
  // Own mutex inside; safe to call with or without mu_ held (the host
  // never calls back into the node).
  SubscriptionHost subsHost_;

  // Lock order: realtime mutex before registry mutex — start() and
  // bucket announcements call the registry with mu_ held (see
  // broker_node.h for why the inverse order cannot occur).
  mutable Mutex mu_ DPSS_ACQUIRED_BEFORE(registry_.internalMutex());
  SessionPtr session_ DPSS_GUARDED_BY(mu_);
  bool running_ DPSS_GUARDED_BY(mu_) = false;
  // next queue offset to read
  std::uint64_t offset_ DPSS_GUARDED_BY(mu_) = 0;
  std::uint64_t eventsIngested_ DPSS_GUARDED_BY(mu_) = 0;
  TimeMs lastPersist_ DPSS_GUARDED_BY(mu_) = 0;
  // handoff version sequence
  std::uint64_t versionCounter_ DPSS_GUARDED_BY(mu_) = 0;
  // Session-expiry recovery state: 0 means "no reconnect scheduled yet".
  TimeMs reregisterNotBeforeMs_ DPSS_GUARDED_BY(mu_) = 0;
  TimeMs reregisterBackoffMs_ DPSS_GUARDED_BY(mu_) =
      options_.reregisterBackoffMs;

  // Live in-memory indexes per segment interval start.
  std::map<TimeMs, std::unique_ptr<storage::IncrementalIndex>> live_
      DPSS_GUARDED_BY(mu_);
  // Buckets whose historical segment was uploaded; waiting for a
  // historical node to serve it before unannouncing.
  struct PendingHandoff {
    storage::SegmentId historicalId;
  };
  std::map<TimeMs, PendingHandoff> awaitingServe_ DPSS_GUARDED_BY(mu_);
  std::map<TimeMs, bool> announced_ DPSS_GUARDED_BY(mu_);
};

}  // namespace dpss::cluster
