// Realtime-node side of the subscription plane: the set of standing
// matchers one ingesting node runs, plus the durable snapshot store that
// ties delivery to the node's committed-offset recovery contract (PR 4).
//
// The invariant the host maintains (with RealtimeNode driving it):
// before the node commits queue offset C, every live subscription's
// in-progress batch has been sealed into a snapshot persisted on the
// node's local disk. A crash therefore loses only matches past the
// committed offset — exactly the range the queue replays — and the
// client's feed dedups the overlap. Snapshots are retired only when the
// collector acks their seq, so delivery is at-least-once end to end.
//
// A seal has two steps. Publishing (finish, pad, stamp the seq, append to
// `pending`) runs under the host lock; re-arming the matcher (a fresh
// E(0) per buffer slot, by far the larger cost) runs after the lock is
// released, on the calling thread. So a fetch, a status read or an
// attach never waits out an arming, while ingest still does.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "pss/subscription.h"

namespace dpss::cluster {

/// Durable per-subscription state on the node's local disk (lives inside
/// NodeDisk, so it survives crash/restart exactly like persisted index
/// snapshots). `pending` holds serialized SubscriptionSnapshots in seq
/// order, sealed but not yet acked by a collector.
struct SubscriptionDurable {
  std::string specBytes;
  std::uint64_t nextSeq = 1;
  struct PendingSnapshot {
    std::uint64_t seq = 0;
    std::string bytes;
  };
  std::vector<PendingSnapshot> pending;
};
using SubscriptionDiskState = std::map<std::uint64_t, SubscriptionDurable>;

struct SubscriptionHostOptions {
  /// Unacked snapshots retained per subscription; beyond this the oldest
  /// is dropped (counted in subscription.snapshots_dropped of the current
  /// metrics registry) so an absent collector cannot OOM the node.
  std::size_t maxPendingPerSubscription = 1024;
};

/// One /statusz row per live subscription.
struct SubscriptionHostStatus {
  pss::SubscriptionId id = 0;
  bool active = false;  // false: stored but matching a different source
  std::int64_t ageMs = 0;
  std::uint64_t fillPercent = 0;
  std::uint64_t documentsSeen = 0;
  std::uint64_t snapshotsSealed = 0;
  std::uint64_t pendingSnapshots = 0;
  std::uint64_t ackedSeq = 0;
};

class SubscriptionHost {
 public:
  /// `disk` must outlive the host (it is the NodeDisk's subscription
  /// table, owned by the harness so it survives crash/restart).
  SubscriptionHost(std::string node, std::string dataSource,
                   SubscriptionDiskState& disk, Clock& clock,
                   SubscriptionHostOptions options = {});

  /// Rebuilds matchers from the disk specs (node start/restart). Sequence
  /// numbers and pending snapshots resume where the disk left them.
  void restore();

  /// Attaches a subscription (idempotent). Specs for a different
  /// docSource are recorded but never matched on this node.
  void attach(pss::SubscriptionId id, const pss::SubscriptionSpec& spec);
  void detach(pss::SubscriptionId id);
  std::vector<pss::SubscriptionId> ids() const;

  /// Feeds one ingested document to every active matcher. Called from the
  /// node's ingest loop with the document's queue offset. A matcher whose
  /// fill threshold fires is sealed inline and re-armed before returning.
  void onDocument(std::uint64_t offset, std::string_view matchText,
                  std::string_view payload) DPSS_EXCLUDES(mu_);

  /// Seals batches whose period or fill-threshold fired (node tick).
  void sealDue() DPSS_EXCLUDES(mu_);

  /// Seals every non-empty batch — the seal-before-commit barrier the
  /// node runs right before committing its queue offset. Every snapshot
  /// is in `pending` before this returns.
  void sealAll() DPSS_EXCLUDES(mu_);

  /// Acks everything at or below `ackSeq` (GC) and returns the rest.
  std::vector<pss::SubscriptionSnapshot> fetch(pss::SubscriptionId id,
                                               std::uint64_t ackSeq);

  /// Serves one kSubscribe(attach/list) / kUnsubscribe / kSnapshot(fetch)
  /// request, full bytes with the verb tag included.
  std::string handleRpc(const std::string& request);

  std::vector<SubscriptionHostStatus> status() const;
  std::uint64_t documentsMatched() const;
  std::uint64_t snapshotsSealed() const;

 private:
  // Shared so a matcher sealed under mu_ stays alive while it is re-armed
  // outside it, even if a concurrent detach erases its entry.
  using MatcherPtr = std::shared_ptr<pss::SubscriptionMatcher>;

  struct Entry {
    // null when the spec's docSource is not this node's (inactive).
    MatcherPtr matcher;
    std::int64_t attachedMs = 0;
    std::uint64_t ackedSeq = 0;
  };

  /// Builds the matcher (its first arming) for a spec this node matches,
  /// or null for another docSource. Runs outside mu_.
  MatcherPtr makeMatcher(pss::SubscriptionId id,
                         pss::SubscriptionSpec spec) const;
  /// Publishes one seal (force: even if not due). True when a snapshot
  /// was appended, i.e. the matcher now needs a rearm().
  bool sealLocked(pss::SubscriptionId id, Entry& entry, bool force)
      DPSS_REQUIRES(mu_);
  /// Seals every due (or, with force, non-empty) batch under mu_, then
  /// re-arms the sealed matchers after releasing it.
  void sealEach(bool force) DPSS_EXCLUDES(mu_);
  std::uint64_t seedFor(pss::SubscriptionId id) const;

  std::string node_;
  std::string dataSource_;
  Clock& clock_;
  SubscriptionHostOptions options_;

  mutable Mutex mu_;
  // Serializes the callers that feed, seal and re-arm matchers
  // (onDocument / sealDue / sealAll), so a re-arm outside mu_ never races
  // a feed or a seal of the same matcher. Taken before mu_; fetch, status,
  // attach and detach never take it.
  Mutex driveMu_ DPSS_ACQUIRED_BEFORE(mu_);
  SubscriptionDiskState& disk_ DPSS_GUARDED_BY(mu_);
  std::map<pss::SubscriptionId, Entry> entries_ DPSS_GUARDED_BY(mu_);
  std::uint64_t documentsMatched_ DPSS_GUARDED_BY(mu_) = 0;
  std::uint64_t snapshotsSealed_ DPSS_GUARDED_BY(mu_) = 0;
};

}  // namespace dpss::cluster
