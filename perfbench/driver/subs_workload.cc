// subs_live: standing private subscriptions over live ingest, the
// paper's stream scenario. One standing query per publisher is hosted on
// two realtime nodes; an open-loop generator produces events on a fixed
// schedule (round-robin over the nodes' queues), and a separate poller
// thread collects and reconstructs snapshots at a fixed interval.
//
// Freshness is an event's due time to its reconstruction at the client.
// Every event must be reconstructed exactly once, by its publisher's
// subscription and by no other.
#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/subscription_client.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"
#include "net/control.h"
#include "pss/blocking.h"
#include "pss/session.h"
#include "pss/subscription.h"
#include "storage/schema.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr char kDocSource[] = "rt-events";

struct Sizes {
  std::size_t publishers = 16;  // one standing query each
  double eventsPerSecond = 16;
  double tickMs = 50;
  double pollIntervalMs = 100;
  double drainMs = 5'000;  // after the window: collect the tail
  std::size_t modulusBits = 256;
  pss::SearchParams params{
      .bufferLength = 16, .indexBufferLength = 256, .bloomHashes = 5};
  pss::SnapshotPolicy policy{.periodMs = 500, .maxDocuments = 8};
};

Sizes sizesFor(const Options& opt) {
  Sizes s;
  if (opt.smoke) {
    s.publishers = 4;
    s.eventsPerSecond = 8;
  }
  return s;
}

const char* kCountries[] = {"us", "de", "fr", "jp", "br", "in", "uk", "ca"};

std::string publisherName(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "pub%02zu", i);
  return buf;
}

/// Event `seq`'s seeded content: its publisher and the queue payload.
/// The payload's impressions field carries the sequence number.
struct Event {
  std::size_t publisher = 0;
  std::string payload;
};

class EventSource {
 public:
  EventSource(const Sizes& s, std::uint64_t seed)
      : sizes_(s), rng_(seed ^ 0x5ab5c0de5ab5c0deULL) {}

  Event next(std::uint64_t seq, dpss::TimeMs timestamp) {
    Event e;
    e.publisher = rng_.below(sizes_.publishers);
    storage::InputRow row;
    row.timestamp = timestamp;
    row.dimensions = {publisherName(e.publisher),
                      kCountries[rng_.below(std::size(kCountries))]};
    row.metrics = {static_cast<double>(seq),
                   static_cast<double>(rng_.below(10'000)) / 100.0};
    e.payload = storage::encodeInputRow(row);
    return e;
  }

 private:
  Sizes sizes_;
  dpss::Rng rng_;
};

/// Standing queries hosted by a realtime node, read from its /statusz.
std::size_t hostedSubscriptions(Cluster& c, const std::string& node) {
  const std::string body = c.adminGet(node, "/statusz");
  const std::size_t list = body.find("\"subscriptions\":[");
  if (list == std::string::npos) return 0;
  std::size_t count = 0;
  for (std::size_t at = body.find("{\"id\":", list); at != std::string::npos;
       at = body.find("{\"id\":", at + 1)) {
    ++count;
  }
  return count;
}

struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<pss::Dictionary> dictionary;
  std::unique_ptr<pss::PrivateSearchClient> search;
  std::unique_ptr<cluster::SubscriptionClient> client;
  std::vector<pss::SubscriptionId> ids;  // index = publisher
};

Deployment deploy(const Options& opt, const Sizes& s) {
  Deployment d;
  d.cluster = std::make_unique<Cluster>(
      opt.nodeBin,
      std::vector<NodeSpec>{
          {"coordinator", "coordinator", {}},
          {"realtime", "rt-0", {"--data-source", kDocSource}},
          {"realtime", "rt-1", {"--data-source", kDocSource}},
          {"broker", "broker", {"--broker-cache", "0"}}},
      opt.traced);
  std::vector<std::string> words;
  for (std::size_t p = 0; p < s.publishers; ++p) {
    words.push_back(publisherName(p));
  }
  for (const char* c : kCountries) words.emplace_back(c);
  d.dictionary = std::make_unique<pss::Dictionary>(words);
  d.search = std::make_unique<pss::PrivateSearchClient>(
      *d.dictionary, s.params, s.modulusBits, opt.seed * 31 + 7);
  d.client = std::make_unique<cluster::SubscriptionClient>(
      d.cluster->transport(), "broker", *d.search);
  // Every payload has the same length (fixed-width names and numbers).
  EventSource probe(s, 0);
  const std::size_t payloadBytes = probe.next(0, 0).payload.size();
  const pss::BlockCodec codec(
      pss::BlockCodec::maxBlockBytesFor(s.modulusBits));
  const std::size_t blocks = codec.blockCount(payloadBytes);
  for (std::size_t p = 0; p < s.publishers; ++p) {
    d.ids.push_back(d.client->subscribe({publisherName(p)}, kDocSource,
                                        blocks, s.policy));
  }
  const bool hosted = waitFor(
      [&] {
        return hostedSubscriptions(*d.cluster, "rt-0") == s.publishers &&
               hostedSubscriptions(*d.cluster, "rt-1") == s.publishers;
      },
      20'000);
  if (!hosted) throw std::runtime_error("subs: standing queries not hosted");
  return d;
}

}  // namespace

void runSubsLive(const Options& opt, RunRecord& rec) {
  const Sizes s = sizesFor(opt);
  Deployment d = bootTimed(opt, rec.setupS, [&] { return deploy(opt, s); });
  Cluster& cluster = *d.cluster;
  auto& transport = cluster.transport();
  const std::vector<std::string> nodes = {"rt-0", "rt-1"};

  // Shared ledger between the generator and the poller, indexed by seq.
  std::mutex mu;
  std::vector<double> dueMs;
  std::vector<std::size_t> publisher;
  std::vector<bool> sent;       // reached a queue
  std::vector<int> delivered;   // reconstructions
  std::vector<double> freshMs, pollMs;
  std::uint64_t polls = 0, pollErrors = 0;
  double lateMaxMs = 0, lagMax = 0;
  bool generatorDone = false;

  PhaseProbe probe;
  probe.begin(cluster);
  const double start = nowMs();
  const double windowEnd = start + opt.seconds * 1000.0;
  const double periodMs = 1000.0 / s.eventsPerSecond;

  // Events go round-robin to the realtime nodes' queues.
  std::jthread generator([&] {
    EventSource source(s, opt.seed);
    dpss::Clock& wall = dpss::SystemClock::instance();
    try {
      lateMaxMs = runOpenLoop(
          start, windowEnd, s.eventsPerSecond, s.tickMs,
          [&](std::uint64_t first, std::uint64_t end) {
            std::vector<std::vector<std::string>> batch(nodes.size());
            for (std::uint64_t seq = first; seq < end; ++seq) {
              const Event e = source.next(seq, wall.nowMs());
              batch[seq % nodes.size()].push_back(e.payload);
              std::lock_guard<std::mutex> lock(mu);
              dueMs.push_back(start + static_cast<double>(seq) * periodMs);
              publisher.push_back(e.publisher);
              sent.push_back(false);
              delivered.push_back(0);
            }
            for (std::size_t n = 0; n < nodes.size(); ++n) {
              if (batch[n].empty()) continue;
              bool ok = true;
              try {
                net::controlIngest(transport, nodes[n], batch[n]);
              } catch (const dpss::Error&) {
                ok = false;
              }
              std::lock_guard<std::mutex> lock(mu);
              for (std::uint64_t seq = first; seq < end; ++seq) {
                if (seq % nodes.size() != n) continue;
                sent[seq] = ok;
                if (!ok) rec.failures.add("subs.ingest_error");
              }
            }
          });
    } catch (const std::exception&) {
      // Interrupted: the poller stops too and the run is discarded.
    }
    std::lock_guard<std::mutex> lock(mu);
    generatorDone = true;
  });
  std::jthread lagSampler([&] {
    lagMax = maxIngestLag(cluster, nodes, windowEnd, [&] {
      std::lock_guard<std::mutex> lock(mu);
      return static_cast<double>(std::count(sent.begin(), sent.end(), true));
    });
  });

  // The poller owns the SubscriptionClient. It runs until the generator
  // finished and every sent event was reconstructed, or the drain budget
  // after the window ran out.
  const auto allDelivered = [&] {
    std::lock_guard<std::mutex> lock(mu);
    if (!generatorDone) return false;
    for (std::size_t q = 0; q < sent.size(); ++q) {
      if (sent[q] && delivered[q] == 0) return false;
    }
    return true;
  };
  double lastDelivery = start;
  for (double next = start;; next += s.pollIntervalMs) {
    sleepMs(next - nowMs());
    if (allDelivered() || nowMs() > windowEnd + s.drainMs) break;
    for (std::size_t p = 0; p < d.ids.size(); ++p) {
      const double t0 = nowMs();
      std::vector<pss::RecoveredDocument> docs;
      try {
        docs = d.client->poll(d.ids[p]);
      } catch (const dpss::Error&) {
        std::lock_guard<std::mutex> lock(mu);
        ++pollErrors;
        rec.failures.add("subs.poll_error");
        continue;
      }
      const double t1 = nowMs();
      std::lock_guard<std::mutex> lock(mu);
      ++polls;
      if (docs.empty()) continue;
      pollMs.push_back(t1 - t0);
      lastDelivery = t1;
      for (const auto& doc : docs) {
        storage::InputRow row;
        try {
          row = storage::decodeInputRow(
              doc.payload.releaseForClientReconstruction());
        } catch (const dpss::Error&) {
          rec.failures.add("subs.corrupt_payload");
          continue;
        }
        const auto seq = row.metrics.empty()
                             ? dueMs.size()
                             : static_cast<std::size_t>(row.metrics[0]);
        if (seq >= dueMs.size() || publisher[seq] != p ||
            row.dimensions.empty() || row.dimensions[0] != publisherName(p)) {
          rec.failures.add("subs.misrouted");
          continue;
        }
        if (++delivered[seq] > 1) {
          rec.failures.add("subs.duplicate");
          continue;
        }
        freshMs.push_back(t1 - dueMs[seq]);
      }
    }
  }
  generator.join();
  lagSampler.join();
  throwIfInterrupted();
  probe.end(cluster);
  cluster.checkAlive();

  std::uint64_t events = 0, deliveredOnce = 0;
  for (std::size_t q = 0; q < sent.size(); ++q) {
    ++events;
    if (!sent[q]) continue;
    if (delivered[q] == 0) rec.failures.add("subs.missing");
    if (delivered[q] >= 1) ++deliveredOnce;
  }
  const auto unsolvable = d.client->snapshotsUnsolvable();
  for (std::uint64_t i = 0; i < unsolvable; ++i) {
    rec.failures.add("subs.unsolvable_snapshot");
  }
  rec.attempted = events + pollErrors + unsolvable;
  rec.series["latency_ms"] = freshMs;
  rec.series["poll_ms"] = pollMs;
  rec.scalars["events"] = static_cast<double>(events);
  rec.scalars["delivered"] = static_cast<double>(deliveredOnce);
  rec.scalars["subscriptions"] = static_cast<double>(d.ids.size());
  rec.scalars["buffer_length"] = static_cast<double>(s.params.bufferLength);
  rec.scalars["polls"] = static_cast<double>(polls);
  rec.scalars["unsolvable"] = static_cast<double>(unsolvable);
  rec.scalars["gen_late_ms_max"] = lateMaxMs;
  rec.scalars["ingest_lag_max"] = lagMax;
  rec.scalars["window_s"] = opt.seconds;
  rec.scalars["last_delivery_s"] = (lastDelivery - start) / 1000.0;
  rec.phaseJson = probe.toJson(cluster);
}

}  // namespace perfbench
