// Coordinator rebalancer bench: 10k-segment placement, scale-out
// rebalance, and drain against the real CoordinatorNode over the real
// Registry, with *simulated* historicals that apply load-queue entries
// directly (announce serving / remove the announcement) instead of
// fetching and decoding blobs — the reconcile loop is what's measured,
// not segment IO.
//
// Prints a JSON document; BENCH_rebalance.json at the repo root is
// seeded from this output. scripts/check_bench.py rebalance re-runs
// `--quick` and gates the *structural invariants* (move budgets
// respected, no thrashing, spread converges to the threshold) and
// machine-independent ratios — never absolute times.
//
// Usage: bench_rebalance [--quick]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/coordinator_node.h"
#include "cluster/metastore.h"
#include "cluster/names.h"
#include "cluster/registry.h"
#include "common/clock.h"

namespace {

using namespace dpss;
using namespace dpss::cluster;
using SteadyClock = std::chrono::steady_clock;

/// A historical that speaks only the registry protocol: it drains its
/// load queue by announcing SERVING (or dropping the announcement)
/// immediately, with no deep-storage fetch or segment decode.
class SimHistorical {
 public:
  SimHistorical(Registry& registry, std::string name)
      : registry_(registry), name_(std::move(name)) {
    session_ = registry_.connect(name_);
    registry_.create(paths::nodeAnnouncement(name_),
                     paths::announceData("historical", ""), session_,
                     /*ephemeral=*/true);
  }

  /// Applies every queued entry; returns how many were applied.
  std::size_t apply() {
    std::size_t applied = 0;
    const std::string queue = paths::loadQueue(name_);
    for (const auto& child : registry_.children(queue)) {
      const std::string entryPath = queue + "/" + child;
      const auto data = registry_.getData(entryPath);
      if (!data) continue;
      if (const auto entry = paths::parseLoadEntry(*data)) {
        const std::string served = paths::servedSegment(name_, entry->id);
        if (!registry_.exists(served)) {
          registry_.create(served, "", session_, /*ephemeral=*/true);
        }
      } else {  // "drop"
        registry_.remove(paths::nodeAnnouncement(name_) + "/" + child);
      }
      registry_.remove(entryPath);
      ++applied;
    }
    return applied;
  }

  std::size_t serving() const {
    return registry_.children(paths::nodeAnnouncement(name_)).size();
  }

  const std::string& name() const { return name_; }

 private:
  Registry& registry_;
  std::string name_;
  SessionPtr session_;
};

struct PhaseResult {
  std::size_t cycles = 0;
  std::size_t moves = 0;
  std::size_t maxMovesInOneCycle = 0;
  double seconds = 0.0;
};

/// Runs reconcile cycles (coordinator cycle, then every sim applies its
/// queue) until a cycle issues nothing and no entry was applied.
PhaseResult converge(CoordinatorNode& coordinator,
                     std::vector<SimHistorical>& sims,
                     std::size_t maxCycles) {
  PhaseResult r;
  const auto t0 = SteadyClock::now();
  for (std::size_t i = 0; i < maxCycles; ++i) {
    const auto stats = coordinator.runOnce();
    std::size_t applied = 0;
    for (auto& sim : sims) applied += sim.apply();
    ++r.cycles;
    r.moves += stats.movesIssued;
    r.maxMovesInOneCycle = std::max(r.maxMovesInOneCycle, stats.movesIssued);
    if (stats.loadsIssued == 0 && stats.dropsIssued == 0 && applied == 0) {
      break;
    }
  }
  r.seconds =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::size_t segments = quick ? 2'000 : 10'000;
  const std::size_t initialNodes = 8;
  const std::size_t joinedNodes = 8;
  const std::size_t drainedNodes = 4;

  ManualClock clock(1'400'000'000'000);
  Registry registry;
  MetaStore metaStore;
  LoadRules rules;
  rules.replicationFactor = 1;
  metaStore.setDefaultRules(rules);

  CoordinatorOptions options;
  options.maxMovesPerCycle = 64;
  options.maxPendingLoadsPerNode = 32;
  CoordinatorNode coordinator("bench-coordinator", registry, metaStore,
                              clock, options);

  for (std::size_t i = 0; i < segments; ++i) {
    SegmentRecord record;
    record.id.dataSource = "bench";
    record.id.interval =
        Interval(static_cast<TimeMs>(i) * 3'600'000,
                 static_cast<TimeMs>(i + 1) * 3'600'000);
    record.id.version = "v0";
    record.deepStorageKey = record.id.toString();
    record.sizeBytes = 1;
    metaStore.upsertSegment(record);
  }

  std::vector<SimHistorical> sims;
  sims.reserve(initialNodes + joinedNodes);
  for (std::size_t i = 0; i < initialNodes; ++i) {
    sims.emplace_back(registry, "sim-" + std::to_string(i));
  }

  std::printf("{\n  \"bench\": \"rebalance\",\n");
  std::printf("  \"segments\": %zu,\n", segments);
  std::printf("  \"nodes_initial\": %zu,\n", initialNodes);
  std::printf("  \"nodes_final\": %zu,\n", initialNodes + joinedNodes);
  std::printf("  \"max_moves_per_cycle\": %zu,\n", options.maxMovesPerCycle);
  std::printf("  \"max_pending_loads_per_node\": %zu,\n",
              options.maxPendingLoadsPerNode);

  // --- phase 1: cold placement onto the initial nodes -------------------
  const auto placement = converge(coordinator, sims, segments);
  std::size_t served = 0;
  for (const auto& sim : sims) served += sim.serving();
  std::printf(
      "  \"placement\": {\"cycles\": %zu, \"seconds\": %.3f, "
      "\"segments_per_s\": %.0f, \"served\": %zu},\n",
      placement.cycles, placement.seconds,
      placement.seconds > 0 ? segments / placement.seconds : 0.0, served);

  // --- phase 2: scale-out, throttled rebalance ---------------------------
  for (std::size_t i = 0; i < joinedNodes; ++i) {
    sims.emplace_back(registry,
                      "sim-" + std::to_string(initialNodes + i));
  }
  const auto rebalance = converge(coordinator, sims, segments);
  const auto settled = coordinator.lastStats();
  std::printf(
      "  \"rebalance\": {\"cycles\": %zu, \"seconds\": %.3f, "
      "\"cycles_per_s\": %.1f, \"moves_total\": %zu, "
      "\"max_moves_in_one_cycle\": %zu, \"final_spread\": %zu},\n",
      rebalance.cycles, rebalance.seconds,
      rebalance.seconds > 0 ? rebalance.cycles / rebalance.seconds : 0.0,
      rebalance.moves, rebalance.maxMovesInOneCycle, settled.imbalance);

  // --- phase 3: drain the joiners back out -------------------------------
  for (std::size_t i = 0; i < drainedNodes; ++i) {
    coordinator.requestDrain(sims[initialNodes + i].name());
  }
  const auto drain = converge(coordinator, sims, segments);
  std::size_t drainedStillServing = 0;
  for (std::size_t i = 0; i < drainedNodes; ++i) {
    drainedStillServing += sims[initialNodes + i].serving();
  }
  served = 0;
  for (const auto& sim : sims) served += sim.serving();
  std::printf(
      "  \"drain\": {\"nodes\": %zu, \"cycles\": %zu, \"seconds\": %.3f, "
      "\"drained_still_serving\": %zu, \"served\": %zu}\n}\n",
      drainedNodes, drain.cycles, drain.seconds, drainedStillServing,
      served);
  return 0;
}
