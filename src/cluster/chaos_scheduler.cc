#include "cluster/chaos_scheduler.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"

namespace dpss::cluster {

namespace {

const obs::MetricId kEventsApplied = obs::internCounter("chaos.events.applied");
const obs::MetricId kEventsSkipped = obs::internCounter("chaos.events.skipped");
const obs::MetricId kNodeCrashes = obs::internCounter("chaos.node.crashes");
const obs::MetricId kNodeRestarts = obs::internCounter("chaos.node.restarts");
const obs::MetricId kStorageFaults = obs::internCounter("chaos.storage.faults");
const obs::MetricId kStorageCorruptions =
    obs::internCounter("chaos.storage.corruptions");
const obs::MetricId kRegistryExpiries =
    obs::internCounter("chaos.registry.expiries");
const obs::MetricId kMembershipEvents =
    obs::internCounter("chaos.membership.events");
const obs::MetricId kSubscriptionEvents =
    obs::internCounter("chaos.subscription.events");

}  // namespace

const char* toString(ChaosEventKind kind) {
  switch (kind) {
    case ChaosEventKind::kHistoricalCrash:
      return "historical-crash";
    case ChaosEventKind::kHistoricalRestart:
      return "historical-restart";
    case ChaosEventKind::kRealtimeCrash:
      return "realtime-crash";
    case ChaosEventKind::kRealtimeRestart:
      return "realtime-restart";
    case ChaosEventKind::kBrokerStop:
      return "broker-stop";
    case ChaosEventKind::kBrokerRestart:
      return "broker-restart";
    case ChaosEventKind::kStorageGetOutage:
      return "storage-get-outage";
    case ChaosEventKind::kStoragePutOutage:
      return "storage-put-outage";
    case ChaosEventKind::kStorageSlowReads:
      return "storage-slow-reads";
    case ChaosEventKind::kStorageCorruptReads:
      return "storage-corrupt-reads";
    case ChaosEventKind::kStorageCorruptBlob:
      return "storage-corrupt-blob";
    case ChaosEventKind::kRegistryExpiry:
      return "registry-expiry";
    case ChaosEventKind::kHistoricalJoin:
      return "historical-join";
    case ChaosEventKind::kHistoricalDecommission:
      return "historical-decommission";
    case ChaosEventKind::kCoordinatorDepose:
      return "coordinator-depose";
    case ChaosEventKind::kSubscriptionSubscribe:
      return "subscription-subscribe";
    case ChaosEventKind::kSubscriptionUnsubscribe:
      return "subscription-unsubscribe";
    case ChaosEventKind::kSubscriptionSnapshotDeadline:
      return "subscription-snapshot-deadline";
  }
  return "unknown";
}

std::vector<ClusterChaosEvent> ChaosScheduler::buildSchedule(
    const ChaosScheduleOptions& options, std::size_t historicalCount,
    std::size_t realtimeCount, TimeMs startMs) {
  std::vector<ClusterChaosEvent> out;
  Rng rng(hashCombine(options.seed, fnv1a("cluster-chaos")));

  struct FaultClass {
    ChaosEventKind kind;
    double weight;
  };
  std::vector<FaultClass> classes;
  const auto add = [&classes](ChaosEventKind kind, double weight) {
    if (weight > 0) classes.push_back({kind, weight});
  };
  if (historicalCount > 0) {
    add(ChaosEventKind::kHistoricalCrash, options.historicalCrashWeight);
  }
  if (realtimeCount > 0) {
    add(ChaosEventKind::kRealtimeCrash, options.realtimeCrashWeight);
  }
  add(ChaosEventKind::kBrokerStop, options.brokerRestartWeight);
  add(ChaosEventKind::kStorageGetOutage, options.storageGetOutageWeight);
  add(ChaosEventKind::kStoragePutOutage, options.storagePutOutageWeight);
  add(ChaosEventKind::kStorageSlowReads, options.storageSlowReadWeight);
  add(ChaosEventKind::kStorageCorruptReads, options.storageCorruptReadWeight);
  add(ChaosEventKind::kStorageCorruptBlob, options.storageCorruptBlobWeight);
  if (historicalCount + realtimeCount > 0) {
    add(ChaosEventKind::kRegistryExpiry, options.registryExpiryWeight);
  }
  add(ChaosEventKind::kHistoricalJoin, options.historicalJoinWeight);
  if (historicalCount > 0) {
    add(ChaosEventKind::kHistoricalDecommission, options.decommissionWeight);
  }
  add(ChaosEventKind::kCoordinatorDepose, options.coordinatorDeposeWeight);
  // Subscription churn rides behind every older class so legacy seeds
  // (all three weights 0) replay byte-identically.
  add(ChaosEventKind::kSubscriptionSubscribe,
      options.subscriptionSubscribeWeight);
  add(ChaosEventKind::kSubscriptionUnsubscribe,
      options.subscriptionUnsubscribeWeight);
  if (realtimeCount > 0) {
    add(ChaosEventKind::kSubscriptionSnapshotDeadline,
        options.subscriptionSnapshotDeadlineWeight);
  }
  double totalWeight = 0;
  for (const auto& c : classes) totalWeight += c.weight;
  if (classes.empty() || totalWeight <= 0 || options.meanEventGapMs <= 0) {
    return out;
  }

  TimeMs t = startMs;
  for (;;) {
    const TimeMs gap = rng.between(std::max<TimeMs>(1, options.meanEventGapMs / 2),
                                   options.meanEventGapMs * 3 / 2);
    t += std::max<TimeMs>(1, gap);
    if (t > startMs + options.horizonMs) break;

    double draw = rng.uniform01() * totalWeight;
    ChaosEventKind kind = classes.back().kind;
    for (const auto& c : classes) {
      if (draw < c.weight) {
        kind = c.kind;
        break;
      }
      draw -= c.weight;
    }

    ClusterChaosEvent e;
    e.at = t;
    e.kind = kind;
    switch (kind) {
      case ChaosEventKind::kHistoricalCrash: {
        e.target = static_cast<std::uint32_t>(rng.below(historicalCount));
        out.push_back(e);
        ClusterChaosEvent restart = e;
        restart.kind = ChaosEventKind::kHistoricalRestart;
        restart.at =
            t + rng.between(options.crashDownMinMs, options.crashDownMaxMs);
        out.push_back(restart);
        break;
      }
      case ChaosEventKind::kRealtimeCrash: {
        e.target = static_cast<std::uint32_t>(rng.below(realtimeCount));
        out.push_back(e);
        ClusterChaosEvent restart = e;
        restart.kind = ChaosEventKind::kRealtimeRestart;
        restart.at =
            t + rng.between(options.crashDownMinMs, options.crashDownMaxMs);
        out.push_back(restart);
        break;
      }
      case ChaosEventKind::kBrokerStop: {
        out.push_back(e);
        ClusterChaosEvent restart = e;
        restart.kind = ChaosEventKind::kBrokerRestart;
        restart.at =
            t + rng.between(options.crashDownMinMs, options.crashDownMaxMs);
        out.push_back(restart);
        break;
      }
      case ChaosEventKind::kStorageGetOutage:
      case ChaosEventKind::kStoragePutOutage:
      case ChaosEventKind::kStorageCorruptReads:
        e.param = rng.between(1, std::max<std::int64_t>(1, options.storageBurstMaxOps));
        out.push_back(e);
        break;
      case ChaosEventKind::kStorageSlowReads:
        e.param = rng.between(1, std::max<std::int64_t>(1, options.storageBurstMaxOps));
        e.param2 = rng.between(options.slowReadMinMs, options.slowReadMaxMs);
        out.push_back(e);
        break;
      case ChaosEventKind::kStorageCorruptBlob:
        // Blob resolved at apply time (the set of keys depends on cluster
        // state); the raw draw keeps the choice seed-determined.
        e.target = static_cast<std::uint32_t>(rng.next() & 0xffffffffu);
        out.push_back(e);
        break;
      case ChaosEventKind::kRegistryExpiry:
        e.target = static_cast<std::uint32_t>(
            rng.below(historicalCount + realtimeCount));
        out.push_back(e);
        break;
      case ChaosEventKind::kHistoricalJoin:
      case ChaosEventKind::kCoordinatorDepose:
        out.push_back(e);
        break;
      case ChaosEventKind::kHistoricalDecommission:
        // Node resolved at apply time (the live set grows with joins);
        // the raw draw keeps the choice seed-determined.
        e.target = static_cast<std::uint32_t>(rng.next() & 0xffffffffu);
        out.push_back(e);
        break;
      case ChaosEventKind::kSubscriptionSubscribe:
      case ChaosEventKind::kSubscriptionUnsubscribe:
      case ChaosEventKind::kSubscriptionSnapshotDeadline:
        // Subscribe/unsubscribe targets resolve in the harness hook; the
        // deadline target is a realtime index reduced at apply time.
        e.target = static_cast<std::uint32_t>(rng.next() & 0xffffffffu);
        out.push_back(e);
        break;
      case ChaosEventKind::kHistoricalRestart:
      case ChaosEventKind::kRealtimeRestart:
      case ChaosEventKind::kBrokerRestart:
        break;  // never drawn directly; paired with the crash above
    }
  }
  // Paired restarts were appended out of order; a stable sort keeps equal
  // timestamps in insertion order, so the result is still deterministic.
  std::stable_sort(out.begin(), out.end(),
                   [](const ClusterChaosEvent& a, const ClusterChaosEvent& b) {
                     return a.at < b.at;
                   });
  return out;
}

ChaosScheduler::ChaosScheduler(Cluster& cluster, ChaosScheduleOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  schedule_ =
      buildSchedule(options_, cluster_.historicalCount(),
                    cluster_.realtimeCount(), cluster_.clock().nowMs());
  const ChaosOptions& t = options_.transport;
  if (t.dropProbability > 0 || t.duplicateProbability > 0 ||
      t.partitionProbability > 0 || t.latencyJitterMaxMs > 0 ||
      !t.dropProbabilityByDest.empty()) {
    ChaosOptions wired = t;
    // One seed replays the whole story: wire-level chaos derives its seed
    // from the scheduler's.
    wired.seed = hashCombine(options_.seed, fnv1a("transport-chaos"));
    cluster_.transport().setChaos(wired);
    transportChaosInstalled_ = true;
  }
  DPSS_LOG(Info) << "chaos scheduler armed: seed " << options_.seed << ", "
                 << schedule_.size() << " events over " << options_.horizonMs
                 << "ms";
}

ChaosScheduler::~ChaosScheduler() {
  if (transportChaosInstalled_) cluster_.transport().clearChaos();
}

std::size_t ChaosScheduler::pump() {
  const TimeMs now = cluster_.clock().nowMs();
  std::size_t processed = 0;
  for (;;) {
    ClusterChaosEvent e;
    {
      MutexLock lock(mu_);
      if (next_ >= schedule_.size() || schedule_[next_].at > now) break;
      e = schedule_[next_++];
    }
    apply(e);
    ++processed;
  }
  return processed;
}

bool ChaosScheduler::done() const {
  MutexLock lock(mu_);
  return next_ >= schedule_.size();
}

void ChaosScheduler::heal() {
  {
    // Abandon anything not yet injected: the story is over.
    MutexLock lock(mu_);
    next_ = schedule_.size();
  }
  cluster_.deepStorage().clearFaults();
  if (transportChaosInstalled_) {
    cluster_.transport().clearChaos();
    transportChaosInstalled_ = false;
  }
  for (std::size_t i = 0; i < cluster_.historicalCount(); ++i) {
    if (!cluster_.historical(i).running()) {
      cluster_.historical(i).start();
      obs_.counter(kNodeRestarts).inc();
    }
  }
  for (std::size_t i = 0; i < cluster_.realtimeCount(); ++i) {
    if (!cluster_.realtime(i).running()) {
      cluster_.restartRealtime(i);
      obs_.counter(kNodeRestarts).inc();
    }
  }
  if (!cluster_.broker().running()) {
    cluster_.broker().start();
    obs_.counter(kNodeRestarts).inc();
  }
  // Note: an at-rest corrupted blob is deliberately NOT rewritten here —
  // only a replica re-uploading good bytes can heal it, and asserting
  // that is the point of the recovery tests.
}

std::vector<AppliedChaosEvent> ChaosScheduler::log() const {
  MutexLock lock(mu_);
  return log_;
}

void ChaosScheduler::record(const ClusterChaosEvent& event, bool applied,
                            std::string detail) {
  obs_.counter(applied ? kEventsApplied : kEventsSkipped).inc();
  DPSS_LOG(Info) << "chaos " << (applied ? "applied " : "skipped ")
                 << toString(event.kind) << " @" << event.at << " -> "
                 << detail;
  MutexLock lock(mu_);
  log_.push_back(AppliedChaosEvent{event, std::move(detail), applied});
}

void ChaosScheduler::apply(const ClusterChaosEvent& e) {
  switch (e.kind) {
    case ChaosEventKind::kHistoricalCrash: {
      auto& node = cluster_.historical(e.target % cluster_.historicalCount());
      if (!node.running()) {
        record(e, false, node.name());
        return;
      }
      node.crash();
      obs_.counter(kNodeCrashes).inc();
      record(e, true, node.name());
      return;
    }
    case ChaosEventKind::kHistoricalRestart: {
      auto& node = cluster_.historical(e.target % cluster_.historicalCount());
      if (node.running()) {
        record(e, false, node.name());
        return;
      }
      node.start();
      obs_.counter(kNodeRestarts).inc();
      record(e, true, node.name());
      return;
    }
    case ChaosEventKind::kRealtimeCrash: {
      if (cluster_.realtimeCount() == 0) {
        record(e, false, "no-realtime-nodes");
        return;
      }
      const std::size_t i = e.target % cluster_.realtimeCount();
      if (!cluster_.realtime(i).running()) {
        record(e, false, cluster_.realtime(i).name());
        return;
      }
      const std::string name = cluster_.realtime(i).name();
      cluster_.crashRealtime(i);
      obs_.counter(kNodeCrashes).inc();
      record(e, true, name);
      return;
    }
    case ChaosEventKind::kRealtimeRestart: {
      if (cluster_.realtimeCount() == 0) {
        record(e, false, "no-realtime-nodes");
        return;
      }
      const std::size_t i = e.target % cluster_.realtimeCount();
      if (cluster_.realtime(i).running()) {
        record(e, false, cluster_.realtime(i).name());
        return;
      }
      cluster_.restartRealtime(i);
      obs_.counter(kNodeRestarts).inc();
      record(e, true, cluster_.realtime(i).name());
      return;
    }
    case ChaosEventKind::kBrokerStop: {
      if (!cluster_.broker().running()) {
        record(e, false, cluster_.broker().name());
        return;
      }
      cluster_.broker().stop();
      obs_.counter(kNodeCrashes).inc();
      record(e, true, cluster_.broker().name());
      return;
    }
    case ChaosEventKind::kBrokerRestart: {
      if (cluster_.broker().running()) {
        record(e, false, cluster_.broker().name());
        return;
      }
      cluster_.broker().start();
      obs_.counter(kNodeRestarts).inc();
      record(e, true, cluster_.broker().name());
      return;
    }
    case ChaosEventKind::kStorageGetOutage:
      cluster_.deepStorage().injectGetFailures(
          static_cast<std::size_t>(e.param));
      obs_.counter(kStorageFaults).inc();
      record(e, true, "get-outage x" + std::to_string(e.param));
      return;
    case ChaosEventKind::kStoragePutOutage:
      cluster_.deepStorage().injectPutFailures(
          static_cast<std::size_t>(e.param));
      obs_.counter(kStorageFaults).inc();
      record(e, true, "put-outage x" + std::to_string(e.param));
      return;
    case ChaosEventKind::kStorageSlowReads:
      cluster_.deepStorage().injectSlowGets(static_cast<std::size_t>(e.param),
                                            e.param2);
      obs_.counter(kStorageFaults).inc();
      record(e, true, "slow-reads x" + std::to_string(e.param) + " +" +
                          std::to_string(e.param2) + "ms");
      return;
    case ChaosEventKind::kStorageCorruptReads:
      cluster_.deepStorage().injectCorruptGets(
          static_cast<std::size_t>(e.param));
      obs_.counter(kStorageFaults).inc();
      record(e, true, "corrupt-reads x" + std::to_string(e.param));
      return;
    case ChaosEventKind::kStorageCorruptBlob: {
      const auto keys = cluster_.deepStorage().list();
      if (keys.empty()) {
        record(e, false, "no-blobs");
        return;
      }
      const std::string& key = keys[e.target % keys.size()];
      cluster_.deepStorage().corruptBlob(key);
      obs_.counter(kStorageCorruptions).inc();
      record(e, true, key);
      return;
    }
    case ChaosEventKind::kRegistryExpiry: {
      const std::size_t total =
          cluster_.historicalCount() + cluster_.realtimeCount();
      if (total == 0) {
        record(e, false, "no-nodes");
        return;
      }
      const std::size_t i = e.target % total;
      if (i < cluster_.historicalCount()) {
        auto& node = cluster_.historical(i);
        if (!node.running()) {
          record(e, false, node.name());
          return;
        }
        node.loseRegistrySession();
        obs_.counter(kRegistryExpiries).inc();
        record(e, true, node.name());
      } else {
        auto& node = cluster_.realtime(i - cluster_.historicalCount());
        if (!node.running()) {
          record(e, false, node.name());
          return;
        }
        node.loseRegistrySession();
        obs_.counter(kRegistryExpiries).inc();
        record(e, true, node.name());
      }
      return;
    }
    case ChaosEventKind::kHistoricalJoin: {
      const std::size_t i = cluster_.addHistoricalNode();
      obs_.counter(kMembershipEvents).inc();
      record(e, true, cluster_.historical(i).name());
      return;
    }
    case ChaosEventKind::kHistoricalDecommission: {
      // Candidates: running, not already draining. Refuse to drain the
      // last one — a cluster with zero active historicals can never
      // re-replicate, so the drain would deadlock.
      std::vector<std::size_t> candidates;
      for (std::size_t i = 0; i < cluster_.historicalCount(); ++i) {
        auto& node = cluster_.historical(i);
        if (node.running() && !node.draining()) candidates.push_back(i);
      }
      if (candidates.size() <= 1) {
        record(e, false, "would-empty-cluster");
        return;
      }
      auto& node = cluster_.historical(candidates[e.target % candidates.size()]);
      node.requestDrain();
      obs_.counter(kMembershipEvents).inc();
      record(e, true, node.name());
      return;
    }
    case ChaosEventKind::kCoordinatorDepose: {
      cluster_.coordinator().elector().depose();
      obs_.counter(kMembershipEvents).inc();
      record(e, true, cluster_.coordinator().name());
      return;
    }
    case ChaosEventKind::kSubscriptionSubscribe: {
      if (!options_.onSubscriptionSubscribe) {
        record(e, false, "no-subscribe-hook");
        return;
      }
      const bool ok = options_.onSubscriptionSubscribe(e.target);
      if (ok) obs_.counter(kSubscriptionEvents).inc();
      record(e, ok, "subscribe");
      return;
    }
    case ChaosEventKind::kSubscriptionUnsubscribe: {
      if (!options_.onSubscriptionUnsubscribe) {
        record(e, false, "no-unsubscribe-hook");
        return;
      }
      const bool ok = options_.onSubscriptionUnsubscribe(e.target);
      if (ok) obs_.counter(kSubscriptionEvents).inc();
      record(e, ok, "unsubscribe");
      return;
    }
    case ChaosEventKind::kSubscriptionSnapshotDeadline: {
      if (cluster_.realtimeCount() == 0) {
        record(e, false, "no-realtime-nodes");
        return;
      }
      const std::size_t i = e.target % cluster_.realtimeCount();
      auto& node = cluster_.realtime(i);
      if (!node.running()) {
        record(e, false, node.name());
        return;
      }
      // Deadline pressure: force the seal barrier now instead of waiting
      // for the period/fill trigger, then let delivery proceed normally.
      node.subscriptions().sealAll();
      obs_.counter(kSubscriptionEvents).inc();
      record(e, true, node.name());
      return;
    }
  }
}

}  // namespace dpss::cluster
