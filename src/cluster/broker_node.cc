#include "cluster/broker_node.h"

#include <future>

#include "cluster/broker_rpc.h"
#include "cluster/names.h"
#include "cluster/subscription_broker.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace dpss::cluster {

using storage::SegmentId;

namespace {

const obs::MetricId kQueryCount = obs::internCounter("broker.query.count");
const obs::MetricId kQueryNs = obs::internHistogram("broker.query.ns");
const obs::MetricId kScatterLatencyNs =
    obs::internHistogram("broker.scatter.latency_ns");
const obs::MetricId kScatterRpcs = obs::internCounter("broker.scatter.rpcs");
const obs::MetricId kCacheHits = obs::internCounter("broker.cache.hits");
const obs::MetricId kCacheMisses = obs::internCounter("broker.cache.misses");
const obs::MetricId kCacheLossServes =
    obs::internCounter("broker.cache.loss_serves");
const obs::MetricId kMergeNs = obs::internHistogram("broker.merge.ns");
const obs::MetricId kPssSearches = obs::internCounter("broker.pss.searches");
const obs::MetricId kPartialQueries =
    obs::internCounter("broker.query.partial");
const obs::MetricId kLostSegments =
    obs::internCounter("broker.scatter.lost_segments");

}  // namespace

BrokerNode::BrokerNode(std::string name, Registry& registry,
                       TransportIface& transport, BrokerOptions options)
    : name_(std::move(name)),
      registry_(registry),
      transport_(transport),
      options_(options) {
  DPSS_CHECK_MSG(options_.scatterThreads >= 1, "need at least one thread");
  obs_.queryLog().setSlowThresholdNs(
      static_cast<std::uint64_t>(options_.slowQueryMs) * 1'000'000ULL);
}

BrokerNode::~BrokerNode() { stop(); }

void BrokerNode::start() {
  MutexLock lock(mu_);
  DPSS_CHECK_MSG(!running_, "broker already running");
  session_ = registry_.connect(name_);
  pool_ = std::make_shared<ThreadPool>(options_.scatterThreads);
  running_ = true;
  viewDirty_ = true;
  // The broker answers clients in other processes: full queries, PSS
  // rounds and the subscription plane.
  transport_.bind(name_, [this](const std::string& req) {
    if (req.empty()) throw CorruptData("empty broker rpc");
    switch (static_cast<std::uint8_t>(req[0])) {
      case rpc::kBrokerQuery:
      case rpc::kBrokerSearch:
        return handleBrokerRpc(*this, req);
      case rpc::kSubscribe:
      case rpc::kUnsubscribe:
      case rpc::kSnapshot: {
        SubscriptionBroker* subs = nullptr;
        {
          MutexLock lock(mu_);
          subs = subscriptions_;
        }
        if (subs == nullptr) {
          throw Unavailable("broker has no subscription plane attached");
        }
        return subs->handleRpc(req);
      }
      default:
        throw CorruptData("unknown broker rpc tag");
    }
  });
  // Any announcement change anywhere invalidates the global view; the
  // next query rebuilds it from the registry.
  watchIds_.push_back(registry_.watchChildren(
      paths::announcements(), [this](const std::string&) {
        invalidateView();
      }));
}

void BrokerNode::stop() {
  std::vector<std::uint64_t> watches;
  std::shared_ptr<ThreadPool> pool;
  SessionPtr session;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
    watches = std::move(watchIds_);
    watchIds_.clear();
    nodeWatches_.clear();
    session = std::move(session_);
    session_.reset();
    pool = std::move(pool_);
    pool_.reset();
  }
  for (const auto id : watches) registry_.unwatch(id);
  transport_.unbind(name_);
  // Expire the session outside mu_: its watch notifications may re-enter
  // this broker's invalidateView(), which takes mu_.
  registry_.expire(session);
  // Release the broker's pool reference outside mu_: scatter tasks take
  // mu_ (cache probes), so joining workers under the lock would deadlock.
  // In-flight queries hold their own pin; the pool dies with the last one.
  pool.reset();
}

void BrokerNode::invalidateView() {
  MutexLock lock(mu_);
  viewDirty_ = true;
}

BrokerNode::View BrokerNode::buildView() {
  // Served-segment znodes carry the canonical id string as data (the
  // znode *name* is an escaped, lossy form).
  View view;
  for (const auto& node : registry_.children(paths::announcements())) {
    const std::string nodePath = paths::nodeAnnouncement(node);
    // Watch every node's served-segments path: the segment announcements
    // are grandchildren of /announcements, invisible to the root watch.
    if (nodeWatches_.emplace(nodePath).second) {
      watchIds_.push_back(registry_.watchChildren(
          nodePath, [this](const std::string&) { invalidateView(); }));
    }
    for (const auto& child : registry_.children(nodePath)) {
      const auto data = registry_.getData(nodePath + "/" + child);
      if (!data) continue;
      SegmentId id;
      try {
        id = SegmentId::parse(*data);
      } catch (const Error&) {
        continue;  // unparseable announcement: skip defensively
      }
      view.serving[id].insert(node);
      view.timelines[id.dataSource].add(id);
    }
  }
  return view;
}

BrokerQueryOutcome BrokerNode::query(const query::QuerySpec& spec) {
  obs::ScopedRegistry obsScope(obs_);
  obs::SpanGuard querySpan("broker.query");
  querySpan.tag("data_source", spec.dataSource);
  obs_.counter(kQueryCount).inc();
  obs::ScopedTimer queryTimer(obs_.histogram(kQueryNs));

  // Snapshot routing decisions under one lock: visible segments and the
  // replica rotation for each.
  struct Target {
    SegmentId id;
    std::vector<std::string> replicas;
    std::string cacheKey;
  };
  std::vector<Target> targets;
  std::shared_ptr<ThreadPool> pool;
  {
    MutexLock lock(mu_);
    if (!running_) throw Unavailable("broker not running: " + name_);
    pool = pool_;  // pin: a concurrent stop() must not join under our feet
    if (viewDirty_) {
      view_ = buildView();
      viewDirty_ = false;
    }
    const auto it = view_.timelines.find(spec.dataSource);
    if (it != view_.timelines.end()) {
      for (const auto& id : it->second.lookup(spec.interval)) {
        Target t;
        t.id = id;
        const auto servingIt = view_.serving.find(id);
        if (servingIt != view_.serving.end()) {
          t.replicas.assign(servingIt->second.begin(),
                            servingIt->second.end());
        }
        if (t.replicas.size() > 1) {
          const std::size_t rot = rng_.below(t.replicas.size());
          std::rotate(t.replicas.begin(), t.replicas.begin() + rot,
                      t.replicas.end());
        }
        t.cacheKey = id.toString() + "|" + spec.fingerprint();
        targets.push_back(std::move(t));
      }
    }
  }

  BrokerQueryOutcome outcome;
  outcome.segmentsQueried = targets.size();
  outcome.traceId = querySpan.traceId();

  // Slow-query log bookkeeping: per-segment latency attribution shared
  // across the scatter tasks, flushed into obs_.queryLog() on exit.
  const std::uint64_t queryStartNs = obs::nowNanos();
  Mutex statsMu;
  std::vector<obs::QuerySegmentLatency> segmentLatencies;
  std::uint64_t bytesMoved = 0;

  // Scatter: one task per segment (the paper's parallel query unit).
  // Each task returns its partial as the bytes it arrived in; the merge
  // loop decodes them straight into the merged result.
  // Pool workers re-enter this node's observability scope and continue
  // the query's trace explicitly — thread-locals don't cross the pool.
  struct SegmentReply {
    std::string partial;  // serialized QueryResult
    bool cacheOnMerge = false;  // a fresh, cacheable RPC reply
  };
  const obs::TraceContext traceCtx = obs::currentTraceContext();
  std::vector<std::future<SegmentReply>> futures;
  futures.reserve(targets.size());
  for (const auto& target : targets) {
    futures.push_back(pool->submit([this, target, spec, &outcome, &statsMu,
                                    &segmentLatencies, &bytesMoved,
                                    traceCtx]() -> SegmentReply {
      obs::ScopedRegistry obsScope(obs_);
      obs::TraceScope traceScope(traceCtx);
      obs::SpanGuard scatterSpan("broker.scatter");
      scatterSpan.tag("segment", target.id.toString());
      const std::uint64_t taskStartNs = obs::nowNanos();
      const auto attribute = [&](const std::string& node,
                                 std::uint64_t latencyNs,
                                 const char* outcomeLabel) {
        MutexLock lock(statsMu);
        segmentLatencies.push_back(obs::QuerySegmentLatency{
            target.id.toString(), node, latencyNs, outcomeLabel});
      };
      // Historical segments are immutable, so a cached partial is always
      // valid. Real-time segments keep the same id while events arrive —
      // caching their scans freezes the count at whatever the first scan
      // saw, so they always take the RPC path.
      const bool cacheable = !target.id.mutableRealtime();
      if (cacheable) {
        obs::SpanGuard probeSpan("broker.cache.probe");
        if (auto cached = cacheGet(target.cacheKey)) {
          obs_.counter(kCacheHits).inc();
          if (target.replicas.empty()) obs_.counter(kCacheLossServes).inc();
          attribute("", obs::nowNanos() - taskStartNs,
                    target.replicas.empty() ? "cache_after_loss"
                                            : "cache_hit");
          MutexLock lock(statsMu);
          ++outcome.cacheHits;
          if (target.replicas.empty()) ++outcome.servedFromCacheAfterLoss;
          return SegmentReply{std::move(*cached), false};
        }
      }
      if (cacheable) obs_.counter(kCacheMisses).inc();
      for (const auto& node : target.replicas) {
        try {
          obs_.counter(kScatterRpcs).inc();
          const std::uint64_t rpcStart = obs::nowNanos();
          const SegmentQueryRequest req{target.id, spec};
          std::string responseBytes =
              callWithPolicy(transport_, node, req.encode(), options_.rpcPolicy);
          const std::uint64_t rpcNs = obs::nowNanos() - rpcStart;
          obs_.histogram(kScatterLatencyNs).observe(rpcNs);
          scatterSpan.tag("node", node);
          attribute(node, rpcNs, "ok");
          {
            MutexLock lock(statsMu);
            bytesMoved += responseBytes.size();
          }
          return SegmentReply{std::move(responseBytes), cacheable};
        } catch (const Unavailable&) {
          continue;  // try the next replica
        } catch (const NotFound&) {
          continue;  // stale view: node no longer serves it
        }
      }
      attribute("", obs::nowNanos() - taskStartNs, "unreachable");
      throw Unavailable("all replicas of " + target.id.toString() +
                        " unreachable and result not cached");
    }));
  }

  // Drain every future before any rethrow: tasks capture references to
  // this frame, so unwinding with tasks still running would dangle.
  obs::SpanGuard mergeSpan("broker.merge");
  obs::ScopedTimer mergeTimer(obs_.histogram(kMergeNs));
  query::QueryResult merged;
  std::string firstLost;
  std::exception_ptr firstError;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      SegmentReply reply = futures[i].get();
      ByteReader reader(reply.partial);
      merged.mergeSerialized(reader);
      // Cache only what decoded: a corrupt reply must not answer later
      // queries too.
      if (reply.cacheOnMerge) {
        cachePut(targets[i].cacheKey, std::move(reply.partial));
      }
    } catch (const Unavailable&) {
      outcome.unreachableSegments.push_back(targets[i].id);
      if (firstLost.empty()) firstLost = targets[i].id.toString();
    } catch (const std::future_error&) {
      // stop() abandoned the task before a worker picked it up.
      outcome.unreachableSegments.push_back(targets[i].id);
      if (firstLost.empty()) firstLost = targets[i].id.toString();
    } catch (...) {
      // User-level error (bad column, malformed spec) or a corrupt
      // partial: surface after all tasks finished.
      if (!firstError) firstError = std::current_exception();
    }
  }
  // Every exit path below flushes one record into the slow-query log;
  // partial and errored queries are always kept (QueryLog retention).
  const auto logQuery = [&](const std::string& error) {
    obs::QueryLogRecord rec;
    rec.traceId = outcome.traceId;
    rec.kind = "query";
    rec.target = spec.dataSource;
    rec.startNs = queryStartNs;
    rec.durationNs = obs::nowNanos() - queryStartNs;
    rec.segmentsQueried = outcome.segmentsQueried;
    rec.cacheHits = outcome.cacheHits;
    rec.partial = outcome.partial();
    for (const auto& id : outcome.unreachableSegments) {
      rec.unreachableSegments.push_back(id.toString());
    }
    rec.error = error;
    MutexLock lock(statsMu);
    rec.bytesMoved = bytesMoved;
    rec.segments = segmentLatencies;
    obs_.queryLog().record(std::move(rec));
  };
  if (firstError) {
    try {
      std::rethrow_exception(firstError);
    } catch (const std::exception& e) {
      logQuery(e.what());
      throw;
    }
  }
  const std::size_t lost = outcome.unreachableSegments.size();
  if (lost > 0) {
    obs_.counter(kLostSegments).inc(lost);
    // Graceful degradation: a strict minority of lost segments yields a
    // partial answer; losing half or more means the result would be more
    // hole than data, so fail loudly instead.
    if (lost * 2 >= targets.size()) {
      const std::string msg =
          "segments unavailable (no replica, no cache): " + firstLost +
          " (+" + std::to_string(lost - 1) + " more)";
      logQuery(msg);
      throw Unavailable(msg);
    }
    obs_.counter(kPartialQueries).inc();
  }

  outcome.rowsScanned = merged.rowsScanned;
  outcome.rows = finalizeResult(spec, merged);
  logQuery("");
  return outcome;
}

std::vector<pss::SearchResultEnvelope> BrokerNode::privateSearch(
    const std::string& docSource, const pss::Dictionary& dictionary,
    const pss::EncryptedQuery& encryptedQuery, std::uint64_t* traceIdOut) {
  obs::ScopedRegistry obsScope(obs_);
  obs::SpanGuard searchSpan("broker.private_search");
  searchSpan.tag("doc_source", docSource);
  obs_.counter(kPssSearches).inc();
  if (traceIdOut != nullptr) *traceIdOut = searchSpan.traceId();

  const std::uint64_t searchStartNs = obs::nowNanos();
  Mutex statsMu;
  std::vector<obs::QuerySegmentLatency> sliceLatencies;
  std::uint64_t bytesMoved = 0;

  std::shared_ptr<ThreadPool> pool;
  {
    MutexLock lock(mu_);
    if (!running_) throw Unavailable("broker not running: " + name_);
    pool = pool_;  // pin across a concurrent stop(), as in query()
  }

  // Discover nodes holding slices of the document source and their
  // maximum payload size, so every node searches with the same s.
  std::vector<std::string> nodes;
  for (const auto& node : registry_.children(paths::announcements())) {
    nodes.push_back(node);
  }
  struct SliceInfo {
    std::string node;
    std::uint64_t base = 0;
    std::uint64_t count = 0;
    std::uint64_t maxPayload = 0;
  };
  std::vector<SliceInfo> slices;
  for (const auto& node : nodes) {
    ByteWriter w;
    w.u8(rpc::kPssInfo);
    w.str(docSource);
    try {
      const std::string resp =
          callWithPolicy(transport_, node, w.data(), options_.rpcPolicy);
      ByteReader r(resp);
      SliceInfo info;
      info.node = node;
      info.base = r.u64();
      info.count = r.varint();
      info.maxPayload = r.varint();
      if (info.count > 0) slices.push_back(std::move(info));
    } catch (const Error&) {
      continue;  // node has no slice / unreachable
    }
  }
  if (slices.empty()) {
    throw NotFound("no node serves document source: " + docSource);
  }

  std::uint64_t maxPayload = 0;
  for (const auto& s : slices) maxPayload = std::max(maxPayload, s.maxPayload);
  const pss::BlockCodec codec(pss::BlockCodec::maxBlockBytesFor(
      encryptedQuery.publicKey().modulusBits()));
  // Every node encodes into the same block count, sized for the largest
  // document of any slice.
  const std::size_t blocks = codec.blockCount(maxPayload);

  // Scatter the encrypted query; each node searches its slice.
  std::vector<std::future<pss::SearchResultEnvelope>> futures;
  for (const auto& slice : slices) {
    ByteWriter w;
    w.u8(rpc::kPssSearch);
    w.str(docSource);
    w.varint(dictionary.size());
    for (const auto& word : dictionary.words()) w.str(word);
    encryptedQuery.serialize(w);
    w.varint(blocks);
    std::uint64_t seed;
    {
      MutexLock lock(mu_);
      seed = rng_.next();
    }
    w.u64(seed);
    std::string request = w.take();
    const obs::TraceContext traceCtx = obs::currentTraceContext();
    futures.push_back(pool->submit(
        [this, node = slice.node, request = std::move(request), traceCtx,
         &statsMu, &sliceLatencies, &bytesMoved] {
          obs::ScopedRegistry obsScope(obs_);
          obs::TraceScope traceScope(traceCtx);
          obs::SpanGuard span("broker.pss.scatter");
          span.tag("node", node);
          obs_.counter(kScatterRpcs).inc();
          const std::uint64_t rpcStart = obs::nowNanos();
          try {
            const std::string resp =
                callWithPolicy(transport_, node, request, options_.rpcPolicy);
            const std::uint64_t rpcNs = obs::nowNanos() - rpcStart;
            obs_.histogram(kScatterLatencyNs).observe(rpcNs);
            {
              MutexLock lock(statsMu);
              sliceLatencies.push_back(
                  obs::QuerySegmentLatency{node, node, rpcNs, "ok"});
              bytesMoved += resp.size();
            }
            ByteReader r(resp);
            return pss::SearchResultEnvelope::deserialize(r);
          } catch (...) {
            MutexLock lock(statsMu);
            sliceLatencies.push_back(obs::QuerySegmentLatency{
                node, "", obs::nowNanos() - rpcStart, "unreachable"});
            throw;
          }
        }));
  }
  // Drain every future before any rethrow — same dangling-frame rule as
  // query(). A missing envelope makes reconstruction impossible, so the
  // first failure surfaces once all slices settled.
  std::vector<pss::SearchResultEnvelope> envelopes;
  envelopes.reserve(futures.size());
  std::exception_ptr firstError;
  for (auto& f : futures) {
    try {
      envelopes.push_back(f.get());
    } catch (const std::future_error&) {
      if (!firstError) {
        firstError = std::make_exception_ptr(
            Unavailable("broker stopped mid-search: " + name_));
      }
    } catch (...) {
      if (!firstError) firstError = std::current_exception();
    }
  }
  const auto logSearch = [&](const std::string& error) {
    obs::QueryLogRecord rec;
    rec.traceId = searchSpan.traceId();
    rec.kind = "pss";
    rec.target = docSource;
    rec.startNs = searchStartNs;
    rec.durationNs = obs::nowNanos() - searchStartNs;
    rec.segmentsQueried = slices.size();
    rec.error = error;
    MutexLock lock(statsMu);
    rec.bytesMoved = bytesMoved;
    rec.segments = sliceLatencies;
    for (const auto& s : rec.segments) {
      if (s.outcome == "unreachable") rec.unreachableSegments.push_back(s.segment);
    }
    rec.partial = !rec.unreachableSegments.empty();
    obs_.queryLog().record(std::move(rec));
  };
  if (firstError) {
    try {
      std::rethrow_exception(firstError);
    } catch (const std::exception& e) {
      logSearch(e.what());
      throw;
    }
  }
  logSearch("");
  return envelopes;
}

std::vector<SegmentId> BrokerNode::visibleSegments(
    const std::string& dataSource, const Interval& interval) {
  MutexLock lock(mu_);
  if (viewDirty_) {
    view_ = buildView();
    viewDirty_ = false;
  }
  const auto it = view_.timelines.find(dataSource);
  if (it == view_.timelines.end()) return {};
  return it->second.lookup(interval);
}

void BrokerNode::cachePut(const std::string& key, std::string partial) {
  if (options_.resultCacheCapacity == 0) return;
  MutexLock lock(mu_);
  const auto it = cacheIndex_.find(key);
  if (it != cacheIndex_.end()) {
    cacheList_.erase(it->second);
    cacheIndex_.erase(it);
  }
  cacheList_.push_front(CacheEntry{key, std::move(partial)});
  cacheIndex_[key] = cacheList_.begin();
  while (cacheList_.size() > options_.resultCacheCapacity) {
    cacheIndex_.erase(cacheList_.back().key);
    cacheList_.pop_back();
  }
}

std::optional<std::string> BrokerNode::cacheGet(const std::string& key) {
  MutexLock lock(mu_);
  const auto it = cacheIndex_.find(key);
  if (it == cacheIndex_.end()) return std::nullopt;
  cacheList_.splice(cacheList_.begin(), cacheList_, it->second);
  return it->second->partial;
}

}  // namespace dpss::cluster
