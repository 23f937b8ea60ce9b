// Standing-subscription bench: one realtime-side SubscriptionHost with
// 1 -> 1k live subscriptions, fed a fixed document stream. Two costs are
// measured per sweep point: the ingest fold (every document folded into
// every active matcher, inline fill-threshold seals included — this is
// what the node's ingest loop pays) and the seal-before-commit barrier
// (sealAll over a partial batch, padding included — this is what a queue
// commit pays). One subscription's snapshots are decrypted through
// SubscriptionFeed so the sweep also proves end-to-end recovery at every
// fan-out level.
//
// At the largest sweep point a second thread calls fetch() back to back
// while the barrier runs, as client polls would. The longest of those
// fetches, as a share of the barrier's own time, is how much of a seal
// a poll has to wait out: near 1 when the host re-arms every matcher
// under its lock, small when only the publishing step holds it.
//
// Prints a JSON document; BENCH_subs.json at the repo root is seeded
// from the full run. scripts/check_bench.py subs re-runs `--quick` and
// gates the *structural invariants* (snapshot counts are a deterministic
// function of the policy, every expected match is recovered, fold count
// is exactly subs x docs) and machine-independent ratios — never
// absolute times.
//
// Usage: bench_subscriptions [--quick]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/subscription_host.h"
#include "common/clock.h"
#include "pss/dictionary.h"
#include "pss/session.h"
#include "pss/subscription.h"

namespace {

using namespace dpss;
using namespace dpss::pss;
using SteadyClock = std::chrono::steady_clock;

double secondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Document `i` of the stream: every 6th carries the subscribed keyword.
std::string documentText(std::size_t i) {
  if (i % 6 == 0) return "breach detected in sector " + std::to_string(i);
  return "routine heartbeat " + std::to_string(i);
}

struct PointResult {
  std::size_t subscriptions = 0;
  std::size_t documents = 0;
  std::size_t folds = 0;
  double foldSeconds = 0.0;
  std::size_t fillSnapshots = 0;
  std::size_t drainSnapshots = 0;
  double drainSeconds = 0.0;
  std::size_t recovered = 0;
  std::size_t expectedMatches = 0;
  std::uint64_t duplicatesDropped = 0;
  // Polling during the barrier (only when probed).
  std::size_t barrierFetches = 0;
  double fetchMaxSeconds = 0.0;
};

PointResult runPoint(PrivateSearchClient& client, const Dictionary& dict,
                     std::size_t subs, std::size_t docs,
                     std::size_t maxDocuments, bool probePolls) {
  SubscriptionSpec spec;
  spec.docSource = "bench-stream";
  spec.dictionaryWords = dict.words();
  spec.query = client.makeQuery({"breach"});
  // 4 blocks x 15 bytes (128-bit modulus) comfortably fits every
  // documentText payload; an undersized budget would fold matches as
  // unrecoverable padding and the recovery gate below would catch it.
  spec.blocksPerSegment = 4;
  spec.policy.periodMs = 0;  // fill-threshold only: fully deterministic
  spec.policy.maxDocuments = maxDocuments;

  ManualClock clock(1'700'000'000'000);
  cluster::SubscriptionDiskState disk;
  cluster::SubscriptionHost host("bench-rt", "bench-stream", disk, clock);
  for (std::size_t i = 0; i < subs; ++i) {
    host.attach(static_cast<SubscriptionId>(i + 1), spec);
  }

  PointResult r;
  r.subscriptions = subs;
  r.documents = docs;

  // Ingest: every document hits every matcher; a full batch seals inline
  // exactly as it does in RealtimeNode's ingest loop.
  const auto foldStart = SteadyClock::now();
  for (std::size_t i = 0; i < docs; ++i) {
    const std::string text = documentText(i);
    host.onDocument(i, text, text);
    if (text.rfind("breach", 0) == 0) ++r.expectedMatches;
  }
  r.foldSeconds = secondsSince(foldStart);
  r.folds = static_cast<std::size_t>(host.documentsMatched());
  r.fillSnapshots = static_cast<std::size_t>(host.snapshotsSealed());

  // Commit barrier: seal every partial batch (padded to l_F segments).
  // The poller has finished one fetch before the barrier starts, so its
  // next ones overlap it.
  std::atomic<bool> draining{true};
  std::atomic<std::size_t> fetches{0};
  std::thread poller;
  if (probePolls) {
    poller = std::thread([&] {
      while (draining.load()) {
        const auto t0 = SteadyClock::now();
        host.fetch(1, /*ackSeq=*/0);
        r.fetchMaxSeconds = std::max(r.fetchMaxSeconds, secondsSince(t0));
        fetches.fetch_add(1);
      }
    });
    while (fetches.load() == 0) std::this_thread::yield();
  }
  const std::size_t fetchesBefore = fetches.load();
  const auto drainStart = SteadyClock::now();
  host.sealAll();
  r.drainSeconds = secondsSince(drainStart);
  if (probePolls) {
    draining.store(false);
    poller.join();
    r.barrierFetches = fetches.load() - fetchesBefore;
  }
  r.drainSnapshots =
      static_cast<std::size_t>(host.snapshotsSealed()) - r.fillSnapshots;

  // End-to-end: one subscription's snapshots decrypt to exactly the
  // matching documents, regardless of how many neighbours it had.
  SubscriptionFeed feed(client.privateKey());
  for (const auto& snap : host.fetch(1, /*ackSeq=*/0)) {
    feed.apply("bench-rt/bench-stream", snap.envelope);
  }
  r.recovered = feed.documents().size();
  r.duplicatesDropped = feed.duplicatesDropped();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::vector<std::size_t> sweep =
      quick ? std::vector<std::size_t>{1, 8, 64}
            : std::vector<std::size_t>{1, 4, 16, 64, 256, 1024};
  const std::size_t docs = 36;
  const std::size_t maxDocuments = 8;

  Dictionary dict({"breach", "routine", "sector", "heartbeat"});
  SearchParams params{16, 256, 5};
  PrivateSearchClient client(dict, params, 128, 20250808);

  std::printf("{\n  \"bench\": \"subscriptions\",\n");
  std::printf("  \"documents_per_point\": %zu,\n", docs);
  std::printf("  \"max_documents_per_snapshot\": %zu,\n", maxDocuments);
  std::printf("  \"buffer_length\": %zu,\n", params.bufferLength);
  std::printf("  \"points\": [");

  bool first = true;
  PointResult largest;
  for (const std::size_t subs : sweep) {
    const PointResult r = runPoint(client, dict, subs, docs, maxDocuments,
                                   /*probePolls=*/subs == sweep.back());
    if (subs == sweep.back()) largest = r;
    std::printf("%s\n    {\"subscriptions\": %zu, \"documents\": %zu, "
                "\"folds\": %zu, \"fold_seconds\": %.4f, "
                "\"folds_per_s\": %.0f, "
                "\"fill_snapshots\": %zu, \"drain_snapshots\": %zu, "
                "\"drain_seconds\": %.4f, \"seal_ms_per_snapshot\": %.3f, "
                "\"recovered\": %zu, \"expected_matches\": %zu, "
                "\"duplicates_dropped\": %llu}",
                first ? "" : ",", r.subscriptions, r.documents, r.folds,
                r.foldSeconds,
                r.foldSeconds > 0 ? r.folds / r.foldSeconds : 0.0,
                r.fillSnapshots, r.drainSnapshots, r.drainSeconds,
                r.drainSnapshots > 0
                    ? 1e3 * r.drainSeconds / r.drainSnapshots
                    : 0.0,
                r.recovered, r.expectedMatches,
                static_cast<unsigned long long>(r.duplicatesDropped));
    first = false;
  }
  std::printf("\n  ],\n");
  std::printf("  \"barrier_poll\": {\"subscriptions\": %zu, "
              "\"seal_all_ms\": %.3f, \"fetches\": %zu, "
              "\"fetch_max_ms\": %.3f, \"fetch_max_share\": %.4f}\n}\n",
              largest.subscriptions, 1e3 * largest.drainSeconds,
              largest.barrierFetches, 1e3 * largest.fetchMaxSeconds,
              largest.drainSeconds > 0
                  ? largest.fetchMaxSeconds / largest.drainSeconds
                  : 0.0);
  return 0;
}
