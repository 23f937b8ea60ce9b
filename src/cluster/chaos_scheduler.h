// Cluster-wide seeded fault injection (the whole-cluster extension of the
// transport's ChaosPolicy, PR 2).
//
// From one (seed, virtual-clock) pair the scheduler derives a replayable
// schedule of faults across every layer the paper's architecture (§III)
// assumes can fail:
//   - node crash/restart cycles: historical, realtime, broker
//   - deep-storage faults: failed gets/puts, slow reads, transient
//     read corruption, at-rest bit-flipped blobs
//   - registry lease churn: session expiries with re-registration backoff
//   - membership churn (DESIGN.md §13, weights default 0 so pre-existing
//     seeds replay unchanged): runtime historical joins, graceful
//     decommissions, coordinator leader deposition
//
// Determinism contract: buildSchedule() is a pure function of
// (options, historicalCount, realtimeCount, startMs) — same seed, same
// topology, byte-identical schedule. The applied-event log is equally
// deterministic when the harness drives the clock and pump() the same way
// (the tests step a ManualClock and compare logs element-wise). Wire-level
// chaos (drops/dups/latency/partitions) rides the same seed: the
// transport's ChaosOptions seed is derived from the scheduler seed, so one
// number replays the entire failure story, logged alongside
// Transport::chaosEvents() and counted in chaos.* metrics.
//
// The scheduler only injects; recovery is the cluster's job — coordinator
// re-replication, historical re-download/re-announce + checksum self-heal,
// realtime replay from the committed offset, registry re-registration with
// backoff. heal() ends the story: it restarts whatever is still down and
// cancels outstanding storage/transport faults so the harness can assert
// the cluster converges back to full replication with checksums verified.
//
// It drives the in-process Cluster harness; no node role runs it.
// dpss-arch: test-harness
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/transport.h"
#include "common/clock.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace dpss::cluster {

enum class ChaosEventKind : std::uint8_t {
  kHistoricalCrash,
  kHistoricalRestart,
  kRealtimeCrash,
  kRealtimeRestart,
  kBrokerStop,
  kBrokerRestart,
  kStorageGetOutage,    // param = number of gets that fail Unavailable
  kStoragePutOutage,    // param = number of puts that fail Unavailable
  kStorageSlowReads,    // param = number of gets, param2 = delay ms
  kStorageCorruptReads, // param = number of gets returning flipped bytes
  kStorageCorruptBlob,  // at-rest bit rot; blob chosen at apply time
  kRegistryExpiry,      // lease loss on a historical or realtime node
  kHistoricalJoin,          // runtime scale-out: a new historical starts
  kHistoricalDecommission,  // graceful drain; skipped if it would empty
                            // the cluster (node chosen at apply time)
  kCoordinatorDepose,       // leader loses its session without noticing;
                            // exercises epoch fencing + re-election
  kSubscriptionSubscribe,    // harness hook registers a standing query
                             // (the scheduler cannot build an encrypted
                             // query itself — that needs client keys)
  kSubscriptionUnsubscribe,  // harness hook retires a standing query
  kSubscriptionSnapshotDeadline,  // forces the seal barrier on one
                                  // realtime node mid-stream
};

const char* toString(ChaosEventKind kind);

/// One scheduled fault. `target` is a raw draw reduced modulo the live
/// node/blob count at apply time; `param`/`param2` are kind-specific (see
/// ChaosEventKind).
struct ClusterChaosEvent {
  TimeMs at = 0;
  ChaosEventKind kind = ChaosEventKind::kHistoricalCrash;
  std::uint32_t target = 0;
  std::int64_t param = 0;
  std::int64_t param2 = 0;

  friend bool operator==(const ClusterChaosEvent&,
                         const ClusterChaosEvent&) = default;
};

/// A schedule entry after pump() processed it: `detail` names the resolved
/// target (node name or blob key); `applied` is false when the event was
/// skipped because its target was already down/up/empty.
struct AppliedChaosEvent {
  ClusterChaosEvent event;
  std::string detail;
  bool applied = false;

  friend bool operator==(const AppliedChaosEvent&,
                         const AppliedChaosEvent&) = default;
};

struct ChaosScheduleOptions {
  std::uint64_t seed = 0;
  /// Faults are scheduled in (start, start + horizonMs].
  TimeMs horizonMs = 20'000;
  /// Mean gap between consecutive events (uniform in [gap/2, 3*gap/2]).
  TimeMs meanEventGapMs = 1'000;

  /// Relative weights per fault class; 0 disables a class. Classes whose
  /// targets don't exist (e.g. realtime faults with no realtime nodes)
  /// are disabled automatically so schedules stay comparable across runs
  /// of the same topology.
  double historicalCrashWeight = 1.0;
  double realtimeCrashWeight = 1.0;
  double brokerRestartWeight = 0.5;
  double storageGetOutageWeight = 1.0;
  double storagePutOutageWeight = 0.5;
  double storageSlowReadWeight = 0.0;  // needs a driven clock; see header
  double storageCorruptReadWeight = 0.5;
  double storageCorruptBlobWeight = 0.0;  // heals only via replica re-upload
  double registryExpiryWeight = 1.0;
  /// Membership churn. All default 0.0: schedules built before these
  /// classes existed must replay byte-identically from the same seed.
  double historicalJoinWeight = 0.0;
  double decommissionWeight = 0.0;
  double coordinatorDeposeWeight = 0.0;
  /// Subscription churn (PR 10). Also default 0.0 for the same replay
  /// guarantee: a zero-weight class is dropped before any RNG draw, so
  /// pre-existing seeds keep producing byte-identical schedules.
  double subscriptionSubscribeWeight = 0.0;
  double subscriptionUnsubscribeWeight = 0.0;
  double subscriptionSnapshotDeadlineWeight = 0.0;

  /// Harness hooks for subscription churn — registering a standing query
  /// needs client-side key material the scheduler must never hold. The
  /// argument is the event's raw target draw; return false to log the
  /// event as skipped. Unset hooks skip their events.
  std::function<bool(std::uint32_t)> onSubscriptionSubscribe;
  std::function<bool(std::uint32_t)> onSubscriptionUnsubscribe;

  /// Crash events pair with an explicit restart event this far out.
  TimeMs crashDownMinMs = 500;
  TimeMs crashDownMaxMs = 3'000;
  /// Storage outage/corruption burst sizes are uniform in [1, max].
  std::int64_t storageBurstMaxOps = 4;
  /// Slow-read delay uniform in [min, max] ms.
  TimeMs slowReadMinMs = 5;
  TimeMs slowReadMaxMs = 30;

  /// Wire-level chaos installed on the cluster transport for the story's
  /// duration; its seed is overwritten with one derived from `seed`. All
  /// probabilities zero (the default) leaves the transport untouched.
  ChaosOptions transport{};
};

class ChaosScheduler {
 public:
  /// Precomputes the schedule from (options, cluster topology, clock now)
  /// and, when options.transport has any nonzero probability, installs
  /// seed-derived chaos on the cluster's transport.
  ChaosScheduler(Cluster& cluster, ChaosScheduleOptions options);
  ~ChaosScheduler();

  ChaosScheduler(const ChaosScheduler&) = delete;
  ChaosScheduler& operator=(const ChaosScheduler&) = delete;

  /// The full precomputed schedule — a pure function of (options,
  /// historicalCount, realtimeCount, startMs); exposed for determinism
  /// tests and for replaying a story from its seed.
  const std::vector<ClusterChaosEvent>& schedule() const { return schedule_; }

  static std::vector<ClusterChaosEvent> buildSchedule(
      const ChaosScheduleOptions& options, std::size_t historicalCount,
      std::size_t realtimeCount, TimeMs startMs);

  /// Applies every not-yet-applied event whose time has passed on the
  /// cluster clock. Returns how many events were processed.
  std::size_t pump();

  /// True once every scheduled event has been processed.
  bool done() const;

  /// Ends the story: restarts every node a crash left down, cancels
  /// outstanding storage faults, and removes the transport chaos this
  /// scheduler installed. Recovery (re-replication, checksum repair,
  /// realtime replay) is then the cluster's own machinery.
  void heal();

  /// Applied/skipped events in processing order, for replay comparison
  /// alongside Transport::chaosEvents().
  std::vector<AppliedChaosEvent> log() const;

  /// chaos.* counters (events applied/skipped, crashes, restarts, storage
  /// faults, corruptions, registry expiries).
  obs::MetricsRegistry& metrics() { return obs_; }

 private:
  void apply(const ClusterChaosEvent& event) DPSS_EXCLUDES(mu_);
  void record(const ClusterChaosEvent& event, bool applied,
              std::string detail) DPSS_EXCLUDES(mu_);

  Cluster& cluster_;
  ChaosScheduleOptions options_;
  std::vector<ClusterChaosEvent> schedule_;
  bool transportChaosInstalled_ = false;
  obs::MetricsRegistry obs_{"chaos-scheduler"};

  mutable Mutex mu_;
  std::size_t next_ DPSS_GUARDED_BY(mu_) = 0;
  std::vector<AppliedChaosEvent> log_ DPSS_GUARDED_BY(mu_);
};

}  // namespace dpss::cluster
