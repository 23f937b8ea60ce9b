#include "cluster/coordinator_node.h"

#include <algorithm>
#include <map>
#include <set>

#include "cluster/names.h"
#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpss::cluster {

namespace {

const obs::MetricId kLoadsIssued =
    obs::internCounter("coordinator.loads.issued");
const obs::MetricId kDropsIssued =
    obs::internCounter("coordinator.drops.issued");
const obs::MetricId kRebalanceMoves =
    obs::internCounter("coordinator.rebalance.moves");
const obs::MetricId kRebalanceThrottledMoves =
    obs::internCounter("coordinator.rebalance.throttled_moves");
const obs::MetricId kRebalanceThrottledLoads =
    obs::internCounter("coordinator.rebalance.throttled_loads");
const obs::MetricId kRebalanceImbalance =
    obs::internGauge("coordinator.rebalance.imbalance");
const obs::MetricId kDrainsCompleted =
    obs::internCounter("coordinator.drains.completed");
const obs::MetricId kFencedWrites =
    obs::internCounter("coordinator.writes.fenced");
const obs::MetricId kNodesActive = obs::internGauge("coordinator.nodes.active");
const obs::MetricId kNodesDraining =
    obs::internGauge("coordinator.nodes.draining");
const obs::MetricId kLeaderGauge = obs::internGauge("coordinator.leader");
const obs::MetricId kEpochGauge = obs::internGauge("coordinator.epoch");
const obs::MetricId kSubstrateUnavailable =
    obs::internCounter("coordinator.substrate_unavailable");

}  // namespace

using storage::SegmentId;

CoordinatorNode::CoordinatorNode(std::string name, Registry& registry,
                                 MetaStore& metaStore, Clock& clock,
                                 CoordinatorOptions options)
    : name_(std::move(name)),
      registry_(registry),
      metaStore_(metaStore),
      clock_(clock),
      options_(options),
      elector_(name_, registry_) {
  session_ = registry_.connect(name_);
}

CoordinatorStats CoordinatorNode::runOnce() {
  CoordinatorStats stats;
  stats.leader = elector_.tick();
  stats.epoch = elector_.epoch();
  try {
    if (stats.leader) {
      if (session_ == nullptr || session_->expired()) {
        session_ = registry_.connect(name_);
      }
      reconcile(stats);
    }
  } catch (const Fenced& e) {
    // Deposed mid-cycle: a successor minted a larger epoch. Stop writing
    // immediately; the next tick() observes the new leader.
    ++stats.fencedWrites;
    DPSS_LOG(Warn) << name_ << " deposed mid-cycle: " << e.what();
  } catch (const Unavailable& e) {
    // The substrate went away (e.g. its process is shutting down): this
    // tick counts as lost leadership. The next tick re-runs the election.
    stats.leader = false;
    obs::currentRegistry().counter(kSubstrateUnavailable).inc();
    DPSS_LOG(Warn) << name_ << " substrate unavailable: " << e.what();
  }

  totalLoads_.fetch_add(stats.loadsIssued, std::memory_order_relaxed);
  totalDrops_.fetch_add(stats.dropsIssued, std::memory_order_relaxed);
  totalMoves_.fetch_add(stats.movesIssued, std::memory_order_relaxed);

  auto& obs = obs::currentRegistry();
  obs.counter(kLoadsIssued).inc(stats.loadsIssued);
  obs.counter(kDropsIssued).inc(stats.dropsIssued);
  obs.counter(kRebalanceMoves).inc(stats.movesIssued);
  obs.counter(kRebalanceThrottledMoves).inc(stats.throttledMoves);
  obs.counter(kRebalanceThrottledLoads).inc(stats.throttledLoads);
  obs.counter(kDrainsCompleted).inc(stats.drainsCompleted);
  obs.counter(kFencedWrites).inc(stats.fencedWrites);
  obs.gauge(kRebalanceImbalance).set(static_cast<std::int64_t>(stats.imbalance));
  obs.gauge(kNodesActive).set(static_cast<std::int64_t>(stats.activeNodes));
  obs.gauge(kNodesDraining).set(static_cast<std::int64_t>(stats.drainingNodes));
  obs.gauge(kLeaderGauge).set(stats.leader ? 1 : 0);
  obs.gauge(kEpochGauge).set(static_cast<std::int64_t>(stats.epoch));

  {
    MutexLock lock(statsMu_);
    lastStats_ = stats;
  }
  if (stats.loadsIssued + stats.dropsIssued > 0) {
    DPSS_LOG(Info) << name_ << " issued " << stats.loadsIssued << " loads ("
                   << stats.movesIssued << " rebalance moves), "
                   << stats.dropsIssued << " drops";
  }
  return stats;
}

void CoordinatorNode::reconcile(CoordinatorStats& stats) {
  const std::uint64_t epoch = elector_.epoch();

  // ---- actual state: live historical nodes, drain flags. --------------
  std::vector<std::string> historicals;
  for (const auto& node : registry_.children(paths::announcements())) {
    const auto data = registry_.getData(paths::nodeAnnouncement(node));
    if (data && paths::announceType(*data) == "historical") {
      historicals.push_back(node);
    }
  }

  // Any node with a drain flag (requested or already complete) is out of
  // the assignment target set.
  std::set<std::string> draining;
  std::set<std::string> drainRequested;
  for (const auto& node : registry_.children(paths::drainsRoot())) {
    draining.insert(node);
    const auto d = registry_.getData(paths::drainFlag(node));
    if (d && *d == paths::kDrainRequested) drainRequested.insert(node);
  }

  std::vector<std::string> active;
  for (const auto& node : historicals) {
    if (draining.count(node) == 0) active.push_back(node);
  }
  stats.activeNodes = active.size();
  stats.drainingNodes = draining.size();

  // Per-node serving and pending-load state. A pending load-queue entry
  // counts toward a node's load (it will serve soon) but deliberately NOT
  // as a replica holder for drop decisions: only announced-serving copies
  // can answer queries.
  std::map<std::string, std::set<std::string>> serving;  // seg -> nodes
  std::map<std::string, std::set<std::string>> pending;  // seg -> nodes
  std::map<std::string, std::set<std::string>> servingByNode;
  std::map<std::string, std::size_t> nodeLoad;
  std::map<std::string, std::size_t> pendingLoads;
  for (const auto& node : historicals) {
    nodeLoad[node] = 0;
    pendingLoads[node] = 0;
    for (const auto& child : registry_.children(paths::nodeAnnouncement(node))) {
      serving[child].insert(node);
      servingByNode[node].insert(child);
      ++nodeLoad[node];
    }
    for (const auto& child : registry_.children(paths::loadQueue(node))) {
      const auto data = registry_.getData(paths::loadQueue(node) + "/" + child);
      if (data && data->rfind("load:", 0) == 0) {
        pending[child].insert(node);
        ++nodeLoad[node];
        ++pendingLoads[node];
      }
    }
  }

  // ---- expected state: the segment table filtered by retention. -------
  const TimeMs now = clock_.nowMs();
  std::map<std::string, SegmentRecord> expected;  // segName -> record
  for (const auto& record : metaStore_.usedSegments()) {
    ++stats.segmentsEvaluated;
    const LoadRules rules = metaStore_.rulesFor(record.id.dataSource);
    const bool expired = rules.retentionMs > 0 &&
                         record.id.interval.end() + rules.retentionMs < now;
    if (!expired) expected.emplace(paths::segmentNode(record.id), record);
  }

  // Every decision is an epoch-fenced znode: a deposed coordinator's
  // writes die at the registry instead of corrupting the queues.
  const auto issueLoad = [&](const std::string& node,
                             const SegmentRecord& rec) {
    const std::string entry = paths::loadQueueEntry(node, rec.id);
    if (registry_.exists(entry)) return false;
    registry_.createFenced(
        entry, paths::loadEntryData(rec.id, rec.deepStorageKey, epoch),
        session_, /*ephemeral=*/false, paths::epochNode(), epoch);
    return true;
  };
  const auto issueDrop = [&](const std::string& node,
                             const std::string& segName) {
    const std::string entry = paths::loadQueue(node) + "/" + segName;
    if (registry_.exists(entry)) return false;
    registry_.createFenced(entry, "drop", session_, /*ephemeral=*/false,
                           paths::epochNode(), epoch);
    return true;
  };

  // ---- per-segment replication repair. --------------------------------
  for (const auto& [segName, rec] : expected) {
    const LoadRules rules = metaStore_.rulesFor(rec.id.dataSource);
    const std::size_t want = std::min(rules.replicationFactor, active.size());

    // Active coverage: serving replicas answer queries now; pending loads
    // will, so both block double-assignment — but only serving ones
    // satisfy drop preconditions below.
    std::set<std::string> covered;
    std::size_t servingActive = 0;
    for (const auto& node : serving[segName]) {
      if (draining.count(node) == 0) {
        covered.insert(node);
        ++servingActive;
      }
    }
    for (const auto& node : pending[segName]) {
      if (draining.count(node) == 0) covered.insert(node);
    }

    // Deficit: assign to the least-loaded active nodes, respecting the
    // per-node pending cap (scale-out throttle).
    while (covered.size() < want) {
      std::string best;
      std::size_t bestLoad = 0;
      bool capped = false;
      for (const auto& node : active) {
        if (covered.count(node) > 0) continue;
        if (pendingLoads[node] >= options_.maxPendingLoadsPerNode) {
          capped = true;
          continue;
        }
        if (best.empty() || nodeLoad[node] < bestLoad) {
          best = node;
          bestLoad = nodeLoad[node];
        }
      }
      if (best.empty()) {
        if (capped) ++stats.throttledLoads;  // retry next cycle
        break;
      }
      if (issueLoad(best, rec)) ++stats.loadsIssued;
      covered.insert(best);
      ++nodeLoad[best];
      ++pendingLoads[best];
    }

    // Surplus: drop from the most-loaded holders — counting only
    // announced-SERVING active replicas. A pending load is not a holder:
    // dropping against it could kill the last copy that can actually
    // answer queries while its replacement is still downloading.
    while (servingActive > want) {
      std::string worst;
      std::size_t worstLoad = 0;
      for (const auto& node : serving[segName]) {
        if (draining.count(node) > 0) continue;
        if (worst.empty() || nodeLoad[node] > worstLoad) {
          worst = node;
          worstLoad = nodeLoad[node];
        }
      }
      if (worst.empty()) break;
      if (issueDrop(worst, segName)) ++stats.dropsIssued;
      serving[segName].erase(worst);
      servingByNode[worst].erase(segName);
      --nodeLoad[worst];
      --servingActive;
    }

    // Drain: a draining holder's copy goes only after enough ACTIVE
    // replicas are announced serving — load-before-drop.
    if (want > 0 && servingActive >= want) {
      const std::set<std::string> holders = serving[segName];
      for (const auto& node : holders) {
        if (draining.count(node) == 0) continue;
        if (issueDrop(node, segName)) ++stats.dropsIssued;
        serving[segName].erase(node);
        servingByNode[node].erase(segName);
        --nodeLoad[node];
      }
    }
  }

  // ---- segments served but no longer expected: drop everywhere. -------
  for (const auto& [segName, nodes] : serving) {
    if (expected.count(segName) > 0) continue;
    for (const auto& node : nodes) {
      if (issueDrop(node, segName)) ++stats.dropsIssued;
    }
  }

  // ---- throttled rebalance: migrate load from the most- to the least-
  // loaded active node, a bounded number of moves per cycle. A move is
  // just a load — the surplus pass of a later cycle drops the source copy
  // once the new replica is announced serving, so moves inherit
  // load-before-drop (and survive coordinator failover: any leader's
  // surplus pass finishes any leader's move).
  while (stats.movesIssued < options_.maxMovesPerCycle && active.size() > 1) {
    std::string maxNode = active.front();
    std::string minNode = active.front();
    for (const auto& node : active) {
      if (nodeLoad[node] > nodeLoad[maxNode]) maxNode = node;
      if (nodeLoad[node] < nodeLoad[minNode]) minNode = node;
    }
    if (nodeLoad[maxNode] - nodeLoad[minNode] <= options_.imbalanceThreshold) {
      break;
    }
    if (pendingLoads[minNode] >= options_.maxPendingLoadsPerNode) {
      ++stats.throttledMoves;  // underloaded node is busy loading; defer
      break;
    }
    std::string pick;
    for (const auto& segName : servingByNode[maxNode]) {
      if (expected.count(segName) == 0) continue;
      if (serving[segName].count(minNode) > 0 ||
          pending[segName].count(minNode) > 0) {
        continue;
      }
      pick = segName;
      break;
    }
    if (pick.empty()) break;  // everything movable already on minNode
    if (!issueLoad(minNode, expected.at(pick))) break;
    ++stats.loadsIssued;
    ++stats.movesIssued;
    pending[pick].insert(minNode);
    ++nodeLoad[minNode];
    ++pendingLoads[minNode];
    // Book the source's eventual drop so this cycle's arithmetic
    // converges; the real drop waits for the replica to serve.
    servingByNode[maxNode].erase(pick);
    --nodeLoad[maxNode];
  }

  // ---- drain completion: flip the flag once the node serves nothing
  // and its queue has fully drained; the node deregisters on seeing it.
  for (const auto& node : drainRequested) {
    const bool servesNothing =
        registry_.children(paths::nodeAnnouncement(node)).empty();
    const bool queueEmpty = registry_.children(paths::loadQueue(node)).empty();
    if (servesNothing && queueEmpty) {
      registry_.setDataFenced(paths::drainFlag(node), paths::kDrainComplete,
                              paths::epochNode(), epoch);
      ++stats.drainsCompleted;
      DPSS_LOG(Info) << name_ << ": drain of " << node << " complete";
    }
  }

  // Load spread across active nodes after this cycle's (virtual) moves.
  if (!active.empty()) {
    std::size_t lo = nodeLoad[active.front()];
    std::size_t hi = lo;
    for (const auto& node : active) {
      lo = std::min(lo, nodeLoad[node]);
      hi = std::max(hi, nodeLoad[node]);
    }
    stats.imbalance = hi - lo;
  }
}

void CoordinatorNode::requestDrain(const std::string& node) {
  const std::string flag = paths::drainFlag(node);
  if (registry_.exists(flag)) return;
  try {
    // Unfenced on purpose: a drain request is operator intent (like a
    // rule-table edit), recorded by whoever received it; only the leader
    // ACTS on it. Persistent so a crash mid-drain resumes draining.
    registry_.create(flag, paths::kDrainRequested, session_,
                     /*ephemeral=*/false);
  } catch (const AlreadyExists&) {
    // Concurrent request; the flag is there, which is all we wanted.
  }
}

CoordinatorStats CoordinatorNode::lastStats() const {
  MutexLock lock(statsMu_);
  return lastStats_;
}

}  // namespace dpss::cluster
