// pss_oneshot: the paper's core operation. A closed loop of client
// sessions, each with its own Paillier key, runs one-keyword private
// searches over a document stream whose two halves live on two
// historical processes; the broker's result cache is off.
//
// Each query is makeQuery -> RemoteBroker::privateSearch -> openDocuments
// per envelope (the steps of cluster::runDistributedPrivateSearch, with
// the same retry rules, timed one by one), and its recovered
// (index, payload) set must equal the generator's ground truth.
#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/broker_rpc.h"
#include "common/error.h"
#include "common/rng.h"
#include "net/control.h"
#include "pss/dictionary.h"
#include "pss/reconstruct.h"
#include "pss/session.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr char kDocSource[] = "stream";
constexpr int kMaxSingularRetries = 5;
constexpr int kMaxUnavailableBatches = 3;

struct Sizes {
  std::size_t dictionary = 64;  // |D|
  std::size_t documents = 512;  // split evenly over the two historicals
  std::size_t sessions = 2;
  std::size_t modulusBits = 512;
  pss::SearchParams params{
      .bufferLength = 32, .indexBufferLength = 256, .bloomHashes = 5};
};

Sizes sizesFor(const Options& opt) {
  Sizes s;
  if (opt.smoke) {
    s.dictionary = 16;
    s.documents = 96;
    s.modulusBits = 256;
  }
  return s;
}

using Truth = std::set<std::pair<std::uint64_t, std::string>>;

struct Inputs {
  pss::Dictionary dictionary;
  std::vector<std::string> documents;
  std::map<std::string, Truth> truth;  // keyword -> matching documents
};

/// Documents carry one or two dictionary keywords plus filler words that
/// are not in the dictionary. No keyword matches more than l_F/2
/// documents of one slice, so a BufferOverflow can only be a bug.
Inputs makeInputs(const Sizes& s, std::uint64_t seed) {
  dpss::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::string> words;
  for (std::size_t i = 0; i < s.dictionary; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "kw%02zu", i);
    words.emplace_back(buf);
  }
  static const char* kFiller[] = {"login", "logout", "ok",    "retry",
                                  "disk",  "cpu",    "audit", "net",
                                  "cache", "user",   "admin", "batch"};
  Inputs in{pss::Dictionary(words), {}, {}};
  const dpss::ZipfDistribution zipf(s.dictionary, 0.8);
  const std::size_t half = s.documents / 2;
  const std::size_t cap = s.params.bufferLength / 2;
  std::vector<std::map<std::string, std::size_t>> perSlice(2);
  for (std::size_t i = 0; i < s.documents; ++i) {
    auto& counts = perSlice[i < half ? 0 : 1];
    std::set<std::string> kws;
    const std::size_t want = 1 + rng.below(2);
    for (int tries = 0; kws.size() < want && tries < 64; ++tries) {
      const std::string& w = words[zipf(rng)];
      if (counts[w] >= cap || kws.count(w) > 0) continue;
      kws.insert(w);
      ++counts[w];
    }
    char head[32];
    std::snprintf(head, sizeof(head), "ev%05zu", i);
    std::string doc = head;
    for (const auto& w : kws) doc += " " + w;
    const std::size_t fillers = 1 + rng.below(3);
    for (std::size_t f = 0; f < fillers; ++f) {
      doc += " ";
      doc += kFiller[rng.below(std::size(kFiller))];
    }
    for (const auto& w : kws) in.truth[w].insert({i, doc});
    in.documents.push_back(std::move(doc));
  }
  return in;
}

struct Session {
  explicit Session(const Inputs& in, const Sizes& s, std::uint64_t seed)
      : client(in.dictionary, s.params, s.modulusBits, seed) {}
  pss::PrivateSearchClient client;
};

struct QueryResult {
  bool ok = false;
  std::string failure;
  double encryptMs = 0, callMs = 0, openMs = 0;
  std::size_t rounds = 0, singularRetries = 0, unavailableRetries = 0;
  std::size_t envelopes = 0;
  std::vector<std::uint64_t> traceIds;
};

/// One private search, timed per client call; never throws a dpss::Error
/// (a failure is returned with its reason).
QueryResult runQuery(cluster::RemoteBroker& broker, Session& session,
                     const std::string& keyword, const Truth& truth) {
  QueryResult q;
  const std::set<std::string> keywords = {keyword};
  try {
    for (;;) {
      ++q.rounds;
      try {
        const double t0 = nowMs();
        const auto encrypted = session.client.makeQuery(keywords);
        const double t1 = nowMs();
        q.encryptMs += t1 - t0;
        std::uint64_t traceId = 0;
        const auto envelopes = broker.privateSearch(
            kDocSource, session.client.dictionary(), encrypted, &traceId);
        const double t2 = nowMs();
        q.callMs += t2 - t1;
        q.traceIds.push_back(traceId);
        q.envelopes = envelopes.size();
        try {
          Truth got;
          for (const auto& env : envelopes) {
            for (const auto& seg :
                 session.client.openDocuments(env, keywords)) {
              got.insert(
                  {seg.index, seg.payload.releaseForClientReconstruction()});
            }
          }
          q.openMs += nowMs() - t2;
          if (q.envelopes != 2) {
            q.failure = "missing_slice";
          } else if (got != truth) {
            q.failure = "wrong_result";
          } else {
            q.ok = true;
          }
          return q;
        } catch (const dpss::CryptoError&) {
          q.openMs += nowMs() - t2;
          if (++q.singularRetries > kMaxSingularRetries) throw;
        }
      } catch (const dpss::Unavailable&) {
        if (++q.unavailableRetries >= kMaxUnavailableBatches) throw;
        // Not sleepMs(): session threads must not throw Interrupted; they
        // check for a signal between queries.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
  } catch (const dpss::DeadlineExceeded&) {
    q.failure = "deadline_exceeded";
  } catch (const dpss::Unavailable&) {
    q.failure = "unavailable";
  } catch (const pss::BufferOverflow&) {
    q.failure = "buffer_overflow";
  } catch (const dpss::CryptoError&) {
    q.failure = "crypto_error";
  } catch (const dpss::Error&) {
    q.failure = "error";
  }
  return q;
}

struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<cluster::RemoteBroker> broker;
  std::vector<std::unique_ptr<Session>> sessions;
};

/// Boot, load both slices, generate every session key, and prove both
/// slices answer with a correct search. The clock for setup_s covers all
/// of it.
Deployment deploy(const Options& opt, const Sizes& s, const Inputs& in) {
  Deployment d;
  d.cluster = std::make_unique<Cluster>(
      opt.nodeBin,
      std::vector<NodeSpec>{{"coordinator", "coordinator", {}},
                            {"historical", "hist-a", {}},
                            {"historical", "hist-b", {}},
                            {"broker", "broker", {"--broker-cache", "0"}}},
      opt.traced);
  auto& transport = d.cluster->transport();
  const std::size_t half = in.documents.size() / 2;
  net::controlLoadDocuments(
      transport, "hist-a", kDocSource, 0,
      {in.documents.begin(), in.documents.begin() + half});
  net::controlLoadDocuments(transport, "hist-b", kDocSource, half,
                            {in.documents.begin() + half, in.documents.end()});
  d.broker = std::make_unique<cluster::RemoteBroker>(transport, "broker");
  for (std::size_t i = 0; i < s.sessions; ++i) {
    d.sessions.push_back(std::make_unique<Session>(
        in, s, opt.seed * 1000003 + 17 * i + 1));
  }
  // The broker learns the historicals from its registry mirror; search
  // until both slices answer with the right documents.
  const std::string probe = in.truth.begin()->first;
  const bool settled = waitFor(
      [&] {
        return runQuery(*d.broker, *d.sessions[0], probe,
                        in.truth.at(probe))
            .ok;
      },
      20'000);
  if (!settled) throw std::runtime_error("pss: slices never answered");
  return d;
}

}  // namespace

void runPssOneshot(const Options& opt, RunRecord& rec) {
  const Sizes s = sizesFor(opt);
  const Inputs in = makeInputs(s, opt.seed);
  Deployment d =
      bootTimed(opt, rec.setupS, [&] { return deploy(opt, s, in); });
  Cluster& cluster = *d.cluster;

  // Warm-up, excluded from timing: every session's first queries.
  for (auto& session : d.sessions) {
    for (const auto& [kw, truth] : in.truth) {
      runQuery(*d.broker, *session, kw, truth);
      break;
    }
  }

  std::unique_ptr<TraceFetcher> fetcher;
  if (opt.traced) {
    fetcher = std::make_unique<TraceFetcher>(cluster, "coordinator", 300);
  }
  const Truth empty;
  std::mutex mu;
  std::vector<double> totalMs, encryptMs, callMs, openMs, retries;
  std::uint64_t attempted = 0;
  PhaseProbe probe;
  probe.begin(cluster);
  const double start = nowMs();
  const double deadline = start + opt.seconds * 1000.0;
  double lastEnd = start;
  std::vector<std::jthread> threads;
  for (std::size_t i = 0; i < d.sessions.size(); ++i) {
    threads.emplace_back([&, i] {
      dpss::Rng rng(opt.seed * 7919 + i);
      const dpss::ZipfDistribution zipf(in.dictionary.size(), 1.0);
      std::uint64_t n = 0;
      while (nowMs() < deadline && !interrupted()) {
        const std::string kw = in.dictionary.word(zipf(rng));
        const auto it = in.truth.find(kw);
        const double t0 = nowMs();
        const QueryResult q =
            runQuery(*d.broker, *d.sessions[i], kw,
                     it == in.truth.end() ? empty : it->second);
        const double t1 = nowMs();
        std::lock_guard<std::mutex> lock(mu);
        ++attempted;
        lastEnd = std::max(lastEnd, t1);
        if (!q.ok) {
          rec.failures.add("pss." + q.failure);
          continue;
        }
        totalMs.push_back(t1 - t0);
        encryptMs.push_back(q.encryptMs);
        callMs.push_back(q.callMs);
        openMs.push_back(q.openMs);
        retries.push_back(
            static_cast<double>(q.singularRetries + q.unavailableRetries));
        if (fetcher && q.rounds == 1) {
          fetcher->submit(
              q.traceIds.back(),
              Json::obj({{"session", Json::num(static_cast<double>(i))},
                         {"seq", Json::num(static_cast<double>(n))},
                         {"total_ms", Json::num(t1 - t0)},
                         {"encrypt_ms", Json::num(q.encryptMs)},
                         {"call_ms", Json::num(q.callMs)},
                         {"open_ms", Json::num(q.openMs)}}),
              // broker.private_search + a scatter and a slice per slice
              5);
        }
        ++n;
      }
    });
  }
  threads.clear();  // joins
  throwIfInterrupted();
  probe.end(cluster);
  if (fetcher) rec.traces = fetcher->finish();
  cluster.checkAlive();

  rec.attempted = attempted;
  rec.series["latency_ms"] = totalMs;
  rec.series["client_encrypt_ms"] = encryptMs;
  rec.series["broker_call_ms"] = callMs;
  rec.series["client_open_ms"] = openMs;
  rec.series["retries"] = retries;
  rec.scalars["window_s"] = (lastEnd - start) / 1000.0;
  rec.scalars["documents"] = static_cast<double>(in.documents.size());
  rec.phaseJson = probe.toJson(cluster);
}

}  // namespace perfbench
