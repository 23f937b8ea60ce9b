// Coordination node (§III-A-4).
//
// "At running time, the coordination node compares the expected state of
// the cluster and the actual state of the cluster to make decision."
// Expected state comes from the metadata store (segment table + rule
// table); actual state from the registry (announcements + pending load
// queues). The coordinator never talks to a compute node directly: every
// decision is a znode written into some node's load-queue path.
//
// Responsibilities reproduced: loading new segments, dropping outdated /
// unused ones, maintaining the replication factor, least-loaded balancing
// of assignments — plus, since DESIGN.md §13: graceful node drain
// (re-replicate before dropping, load-before-drop), a throttled
// continuous rebalancer, and leader election with epoch fencing so only
// one coordinator writes load queues at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/leader_election.h"
#include "cluster/metastore.h"
#include "cluster/registry.h"
#include "common/clock.h"
#include "common/thread_annotations.h"

namespace dpss::cluster {

struct CoordinatorOptions {
  /// Rebalance moves issued per runOnce() cycle; 0 disables rebalancing.
  std::size_t maxMovesPerCycle = 8;
  /// Per-node cap on outstanding (unacked) load-queue loads. New loads —
  /// deficit repair, drain re-replication, rebalance moves alike — are
  /// deferred to a later cycle when the target is at the cap, so a
  /// scale-out never floods one node's download path.
  std::size_t maxPendingLoadsPerNode = 4;
  /// A node pair is "imbalanced" when their (served + pending) load
  /// differs by more than this; the rebalancer stops below it.
  std::size_t imbalanceThreshold = 1;
};

struct CoordinatorStats {
  std::size_t loadsIssued = 0;    // deficit repair + drain re-replication
  std::size_t dropsIssued = 0;
  std::size_t movesIssued = 0;    // rebalance loads (subset of loadsIssued)
  std::size_t throttledLoads = 0;  // deferred by the per-node pending cap
  std::size_t throttledMoves = 0;  // rebalance moves deferred by the cap
  std::size_t drainsCompleted = 0;
  std::size_t fencedWrites = 0;  // writes rejected: we were deposed
  std::size_t segmentsEvaluated = 0;
  std::size_t activeNodes = 0;    // announced historicals not draining
  std::size_t drainingNodes = 0;
  std::size_t imbalance = 0;  // max-min load spread after this cycle
  bool leader = false;
  std::uint64_t epoch = 0;
};

class CoordinatorNode {
 public:
  CoordinatorNode(std::string name, Registry& registry, MetaStore& metaStore,
                  Clock& clock, CoordinatorOptions options = {});

  /// One reconciliation cycle ("periodically checks the current status of
  /// the cluster"). Runs an election round first; a non-leader cycle
  /// issues nothing. Deterministic and idempotent: a second run with no
  /// state change issues nothing.
  CoordinatorStats runOnce();

  /// Requests a graceful drain of `node`: subsequent cycles re-replicate
  /// its segments elsewhere, drop its copies only once replacements are
  /// announced serving, and finally flip the flag to drain-complete.
  /// Idempotent. Any coordinator (or the node itself, via the control
  /// channel) may request; only the leader acts on it.
  void requestDrain(const std::string& node);

  /// Stats of the most recent runOnce() (admin-plane thread-safe).
  CoordinatorStats lastStats() const;

  // Cumulative since construction (survive across cycles; the failover
  // test reads these off the NEW leader to prove it took over the work).
  std::uint64_t totalLoadsIssued() const { return totalLoads_.load(); }
  std::uint64_t totalDropsIssued() const { return totalDrops_.load(); }
  std::uint64_t totalMovesIssued() const { return totalMoves_.load(); }

  /// The election handle — exposed for the chaos scheduler's
  /// leader-depose hook and for /statusz.
  LeaderElector& elector() { return elector_; }

  const std::string& name() const { return name_; }

 private:
  void reconcile(CoordinatorStats& stats);

  std::string name_;
  Registry& registry_;
  MetaStore& metaStore_;
  Clock& clock_;
  CoordinatorOptions options_;
  SessionPtr session_;
  LeaderElector elector_;

  std::atomic<std::uint64_t> totalLoads_{0};
  std::atomic<std::uint64_t> totalDrops_{0};
  std::atomic<std::uint64_t> totalMoves_{0};

  mutable Mutex statsMu_;
  CoordinatorStats lastStats_ DPSS_GUARDED_BY(statsMu_);
};

}  // namespace dpss::cluster
