// ana_mixed: the Druid side with no crypto, reads beside writes. Two
// historicals serve the ad-tech segments (the paper's 10,000-row segment
// size); one closed-loop client cycles through the Table II queries Q1-Q6
// plus a count/sum over the realtime source while an open-loop generator
// feeds the realtime node. (On a shared 4-vCPU VM a second client
// saturated the cores, and queueing on the cluster's own threads doubled
// the run-to-run spread whenever the hypervisor's steal time rose.)
//
// Q1-Q6 must equal an in-process query-engine run over the same generated
// segments; the realtime answer must never exceed the events sent and
// never go backwards (per client).
#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/broker_rpc.h"
#include "cluster/metastore.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/interval.h"
#include "common/rng.h"
#include "net/control.h"
#include "net/substrate.h"
#include "query/engine.h"
#include "query/query.h"
#include "query/result.h"
#include "storage/adtech.h"
#include "storage/schema.h"
#include "storage/segment_codec.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr char kSource[] = "ads";
constexpr char kRtSource[] = "rt-events";
const dpss::Interval kAllTime(0, 4'000'000'000'000LL);

struct Sizes {
  std::size_t segments = 8;  // 4 per historical
  std::size_t rowsPerSegment = 10'000;
  double eventsPerSecond = 200;
  double tickMs = 50;
  std::size_t traceEvery = 8;  // traced runs: fetch every Nth query's trace
};

Sizes sizesFor(const Options& opt) {
  Sizes s;
  if (opt.smoke) {
    s.segments = 4;
    s.rowsPerSegment = 500;
    s.eventsPerSecond = 50;
    s.traceEvery = 4;
  }
  return s;
}

/// Query classes: Q1..Q6 of Table II, then the realtime count.
constexpr int kClasses = 7;
constexpr int kRealtime = 6;
const char* kClassNames[kClasses] = {"q1", "q2", "q3", "q4", "q5", "q6", "rt"};

query::QuerySpec realtimeQuery() {
  query::QuerySpec q;
  q.dataSource = kRtSource;
  q.interval = kAllTime;
  q.aggregations = {query::countAgg("rows"),
                    query::longSumAgg("impressions", "events"),
                    query::doubleSumAgg("revenue", "revenue")};
  return q;
}

struct Inputs {
  std::vector<storage::SegmentPtr> segments;
  std::vector<std::string> encoded;
  std::vector<query::QuerySpec> specs;                   // by class
  std::vector<std::vector<query::ResultRow>> expected;  // Q1..Q6
};

Inputs makeInputs(const Sizes& s, std::uint64_t seed) {
  Inputs in;
  storage::AdTechConfig config;
  config.seed = seed;
  config.rowsPerSegment = s.rowsPerSegment;
  in.segments = storage::generateAdTechSegments(config, kSource, s.segments);
  for (const auto& seg : in.segments) {
    in.encoded.push_back(storage::encodeSegment(*seg));
  }
  for (int q = 1; q <= 6; ++q) {
    const auto spec = query::tableTwoQuery(q, kSource, kAllTime);
    query::QueryResult merged;
    for (const auto& seg : in.segments) {
      merged.mergeFrom(query::scanSegment(*seg, spec));
    }
    in.specs.push_back(spec);
    in.expected.push_back(query::finalizeResult(spec, merged));
  }
  in.specs.push_back(realtimeQuery());
  return in;
}

/// Row-by-row equality; sums may differ in the last bits because the
/// broker merges partials in arrival order.
bool sameRows(const std::vector<query::ResultRow>& got,
              const std::vector<query::ResultRow>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].group != want[i].group ||
        got[i].values.size() != want[i].values.size()) {
      return false;
    }
    for (std::size_t j = 0; j < got[i].values.size(); ++j) {
      const double a = got[i].values[j], b = want[i].values[j];
      if (std::fabs(a - b) > 1e-9 * std::max(1.0, std::fabs(b))) return false;
    }
  }
  return true;
}

struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<cluster::RemoteBroker> broker;
};

/// Boot, publish every segment, and wait until placement settled: each
/// historical serves its half and a Q1 count through the broker returns
/// exactly segments x rows.
Deployment deploy(const Options& opt, const Sizes& s, const Inputs& in) {
  Deployment d;
  d.cluster = std::make_unique<Cluster>(
      opt.nodeBin,
      std::vector<NodeSpec>{{"coordinator", "coordinator", {}},
                            {"historical", "hist-a", {}},
                            {"historical", "hist-b", {}},
                            {"realtime", "rt-0", {"--data-source", kRtSource}},
                            {"broker", "broker", {"--broker-cache", "0"}}},
      opt.traced);
  auto& transport = d.cluster->transport();
  net::RemoteMetaStore metaStore(transport, net::kSubstrateNode);
  net::RemoteDeepStorage deepStorage(transport, net::kSubstrateNode);
  for (std::size_t i = 0; i < in.segments.size(); ++i) {
    const std::string key = in.segments[i]->id().toString();
    deepStorage.put(key, in.encoded[i]);
    cluster::SegmentRecord record;
    record.id = in.segments[i]->id();
    record.deepStorageKey = key;
    record.sizeBytes = in.segments[i]->memoryFootprint();
    metaStore.upsertSegment(record);
  }
  const std::size_t half = s.segments / 2;
  const bool placed = waitFor(
      [&] {
        return net::controlServedSegments(transport, "hist-a").size() ==
                   half &&
               net::controlServedSegments(transport, "hist-b").size() ==
                   s.segments - half;
      },
      30'000);
  if (!placed) throw std::runtime_error("ana: segments never placed");
  d.broker = std::make_unique<cluster::RemoteBroker>(transport, "broker");
  const double total = static_cast<double>(s.segments * s.rowsPerSegment);
  const bool counted = waitFor(
      [&] {
        const auto out = d.broker->query(in.specs[0]);
        return !out.partial() && out.rows.size() == 1 &&
               out.rows[0].values.at(0) == total;
      },
      20'000);
  if (!counted) throw std::runtime_error("ana: Q1 count never matched");
  return d;
}

}  // namespace

void runAnaMixed(const Options& opt, RunRecord& rec) {
  const Sizes s = sizesFor(opt);
  const Inputs in = makeInputs(s, opt.seed);
  Deployment d =
      bootTimed(opt, rec.setupS, [&] { return deploy(opt, s, in); });
  Cluster& cluster = *d.cluster;
  auto& transport = cluster.transport();

  // Warm-up, excluded from timing: one pass over every class.
  for (int c = 0; c < kClasses; ++c) {
    try {
      d.broker->query(in.specs[c]);
    } catch (const dpss::Error&) {
    }
  }

  std::mutex mu;
  std::map<std::string, std::vector<double>> latency;  // by class
  std::uint64_t attempted = 0;
  std::uint64_t sentEvents = 0;  // handed to the realtime queue
  double lateMaxMs = 0, lagMax = 0;
  double lastEnd = 0;  // when the last query returned

  std::unique_ptr<TraceFetcher> fetcher;
  if (opt.traced) {
    fetcher = std::make_unique<TraceFetcher>(cluster, "coordinator", 300);
  }
  PhaseProbe probe;
  probe.begin(cluster);
  const double start = nowMs();
  const double deadline = start + opt.seconds * 1000.0;
  lastEnd = start;

  std::jthread generator([&] {
    dpss::Rng rng(opt.seed ^ 0xa11ce5eedULL);
    const dpss::ZipfDistribution publishers(50, 1.0);
    static const char* kCountries[] = {"us", "de", "fr", "jp", "br"};
    dpss::Clock& wall = dpss::SystemClock::instance();
    try {
      lateMaxMs = runOpenLoop(
          start, deadline, s.eventsPerSecond, s.tickMs,
          [&](std::uint64_t first, std::uint64_t end) {
            std::vector<std::string> batch;
            for (std::uint64_t seq = first; seq < end; ++seq) {
              storage::InputRow row;
              row.timestamp = wall.nowMs();
              char pub[32];
              std::snprintf(pub, sizeof(pub), "pub%02zu", publishers(rng));
              row.dimensions = {pub,
                                kCountries[rng.below(std::size(kCountries))]};
              row.metrics = {1.0,
                             static_cast<double>(rng.below(10'000)) / 100.0};
              batch.push_back(storage::encodeInputRow(row));
            }
            {
              // Counted before the call: a query may see the batch before
              // controlIngest returns, and `sentEvents` bounds what it sees.
              std::lock_guard<std::mutex> lock(mu);
              sentEvents += batch.size();
            }
            try {
              net::controlIngest(transport, "rt-0", batch);
            } catch (const dpss::Error&) {
              std::lock_guard<std::mutex> lock(mu);
              attempted += batch.size();
              for (std::size_t i = 0; i < batch.size(); ++i) {
                rec.failures.add("ana.ingest_error");
              }
            }
          });
    } catch (const std::exception&) {
      // Interrupted: the client stops too and the run is discarded.
    }
  });
  std::jthread lagSampler([&] {
    lagMax = maxIngestLag(cluster, {"rt-0"}, deadline, [&] {
      std::lock_guard<std::mutex> lock(mu);
      return static_cast<double>(sentEvents);
    });
  });

  // The closed-loop client runs on this thread.
  double lastRtEvents = 0;
  std::size_t n = 0;
  for (int c = 0; nowMs() < deadline && !interrupted();
       c = (c + 1) % kClasses) {
    const double t0 = nowMs();
    std::string failure;
    cluster::BrokerQueryOutcome out;
    try {
      out = d.broker->query(in.specs[c]);
    } catch (const dpss::DeadlineExceeded&) {
      failure = "deadline_exceeded";
    } catch (const dpss::Unavailable&) {
      failure = "unavailable";
    } catch (const dpss::Error&) {
      failure = "error";
    }
    const double t1 = nowMs();
    if (failure.empty() && out.partial()) failure = "partial";
    if (failure.empty() && c != kRealtime &&
        !sameRows(out.rows, in.expected[c])) {
      failure = "wrong_result";
    }
    if (failure.empty() && c == kRealtime) {
      std::uint64_t sent = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        sent = sentEvents;
      }
      // rows: rolled-up count; events: sum of impressions (1 each).
      const bool shaped =
          out.rows.size() == 1 && out.rows[0].values.size() == 3;
      const double rows = shaped ? out.rows[0].values[0] : -1;
      const double events = shaped ? out.rows[0].values[1] : -1;
      if (!shaped || rows > events || events > sent || events < lastRtEvents) {
        failure = "realtime_count";
      } else {
        lastRtEvents = events;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    lastEnd = t1;
    if (!failure.empty()) {
      rec.failures.add(std::string("ana.") + kClassNames[c] + "." + failure);
      continue;
    }
    latency[kClassNames[c]].push_back(t1 - t0);
    if (fetcher && ++n % s.traceEvery == 0) {
      // Q1-Q6 scatter to every segment: query + merge, and per segment a
      // scatter, cache probe, RPC handler and scan span.
      const std::size_t spans =
          c == kRealtime ? 3 : 2 + 4 * in.segments.size();
      fetcher->submit(out.traceId,
                      Json::obj({{"class", Json::str(kClassNames[c])},
                                 {"latency_ms", Json::num(t1 - t0)}}),
                      spans);
    }
  }
  generator.join();
  lagSampler.join();
  throwIfInterrupted();
  probe.end(cluster);
  if (fetcher) rec.traces = fetcher->finish();
  cluster.checkAlive();

  rec.attempted = attempted;
  for (const auto& [cls, v] : latency) rec.series["latency_ms." + cls] = v;
  rec.scalars["window_s"] = (lastEnd - start) / 1000.0;
  rec.scalars["events_sent"] = static_cast<double>(sentEvents);
  rec.scalars["gen_late_ms_max"] = lateMaxMs;
  rec.scalars["ingest_lag_max"] = lagMax;
  rec.scalars["segments"] = static_cast<double>(s.segments);
  rec.scalars["rows_per_segment"] = static_cast<double>(s.rowsPerSegment);
  rec.phaseJson = probe.toJson(cluster);
}

}  // namespace perfbench
