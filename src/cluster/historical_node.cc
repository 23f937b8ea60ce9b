#include "cluster/historical_node.h"

#include <algorithm>
#include <future>

#include "cluster/names.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "pss/searcher.h"
#include "query/engine.h"
#include "storage/segment_codec.h"

namespace dpss::cluster {

using storage::SegmentId;
using storage::SegmentPtr;

namespace {

const obs::MetricId kSegmentsScanned =
    obs::internCounter("historical.segments.scanned");
const obs::MetricId kScanNs = obs::internHistogram("historical.scan.ns");
const obs::MetricId kSegmentsLoaded =
    obs::internCounter("historical.segments.loaded");
const obs::MetricId kLoadNs = obs::internHistogram("historical.load.ns");
const obs::MetricId kDownloads =
    obs::internCounter("historical.deep_storage.downloads");
const obs::MetricId kDiskCacheHits =
    obs::internCounter("historical.disk_cache.hits");
const obs::MetricId kPssSlices =
    obs::internCounter("historical.pss.slice_searches");
const obs::MetricId kServedGauge = obs::internGauge("historical.segments.served");
const obs::MetricId kChecksumFailures =
    obs::internCounter("historical.deep_storage.checksum_failures");
const obs::MetricId kRefetchHeals =
    obs::internCounter("historical.deep_storage.refetch_heals");
const obs::MetricId kRepairs =
    obs::internCounter("historical.deep_storage.repairs");
const obs::MetricId kReregistrations =
    obs::internCounter("historical.registry.reregistrations");
const obs::MetricId kReregisterFailures =
    obs::internCounter("historical.registry.reregister_failures");
const obs::MetricId kSubstrateUnavailable =
    obs::internCounter("historical.substrate_unavailable");

}  // namespace

HistoricalNode::HistoricalNode(std::string name, Registry& registry,
                               storage::DeepStorage& deepStorage,
                               TransportIface& transport,
                               HistoricalNodeOptions options)
    : name_(std::move(name)),
      registry_(registry),
      deepStorage_(deepStorage),
      transport_(transport),
      options_(options) {
  DPSS_CHECK_MSG(options_.workerThreads >= 1, "need at least one worker");
}

HistoricalNode::~HistoricalNode() { stop(); }

void HistoricalNode::start() {
  SessionPtr session;
  {
    MutexLock lock(mu_);
    DPSS_CHECK_MSG(!running_, "node already running");
    session_ = registry_.connect(name_);
    session = session_;
    pool_ = std::make_shared<ThreadPool>(options_.workerThreads);
    running_ = true;
  }
  // Announce the node itself (ephemeral: crash -> vanishes).
  registry_.create(paths::nodeAnnouncement(name_),
                   paths::announceData("historical", options_.advertiseEndpoint),
                   session,
                   /*ephemeral=*/true);
  transport_.bind(name_, [this](const std::string& req) {
    return handleRpc(req);
  });
  // A persistent drain flag survives a crash: resume draining before
  // touching the queue, so queued loads are refused, not taken.
  refreshDrainState();
  // Arm the load-queue watch, then drain anything already assigned.
  const std::uint64_t watchId = registry_.watchChildren(
      paths::loadQueue(name_),
      [this](const std::string&) { onLoadQueueEvent(); });
  {
    MutexLock lock(mu_);
    watchId_ = watchId;
  }
  onLoadQueueEvent();
  DPSS_LOG(Info) << "historical node " << name_ << " online";
}

void HistoricalNode::stop() {
  SessionPtr session;
  std::shared_ptr<ThreadPool> pool;
  std::uint64_t watchId = 0;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
    served_.clear();
    session = std::move(session_);
    session_.reset();
    pool = std::move(pool_);
    pool_.reset();
    watchId = watchId_;
    watchId_ = 0;
  }
  transport_.unbind(name_);
  registry_.unwatch(watchId);
  registry_.expire(session);  // removes announcement + served ephemerals
  // A finished drain deregisters fully: the flag served its purpose. An
  // unfinished one stays, so a restart resumes draining where it left off.
  if (drainComplete_.load(std::memory_order_acquire)) {
    registry_.remove(paths::drainFlag(name_));
    draining_.store(false, std::memory_order_release);
    drainComplete_.store(false, std::memory_order_release);
  }
  // Join workers outside mu_: in-flight scans pin the pool and take mu_.
  pool.reset();
}

void HistoricalNode::crash() {
  SessionPtr session;
  std::shared_ptr<ThreadPool> pool;
  std::uint64_t watchId = 0;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
    served_.clear();  // in-memory state dies; localDisk_ survives
    session = std::move(session_);
    session_.reset();
    pool = std::move(pool_);
    pool_.reset();
    watchId = watchId_;
    watchId_ = 0;
  }
  transport_.unbind(name_);
  registry_.unwatch(watchId);
  registry_.expire(session);
  pool.reset();
}

void HistoricalNode::loseRegistrySession() {
  SessionPtr session;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    session = session_;
  }
  registry_.expire(session);
  DPSS_LOG(Warn) << name_ << " lost registry session (lease expiry)";
}

void HistoricalNode::tick() {
  maybeReregister();
  try {
    refreshDrainState();
    onLoadQueueEvent();
  } catch (const Unavailable& e) {
    obs_.counter(kSubstrateUnavailable).inc();
    DPSS_LOG(Warn) << name_ << " substrate unavailable: " << e.what();
  }
}

void HistoricalNode::maybeReregister() {
  {
    MutexLock lock(mu_);
    if (!running_ || session_ == nullptr || !session_->expired()) return;
    const TimeMs now = transport_.clock().nowMs();
    if (reregisterNotBeforeMs_ == 0) {
      // First tick after lease loss: schedule the reconnect one backoff
      // period out, as a real client would after a ZK session expiry.
      reregisterNotBeforeMs_ = now + reregisterBackoffMs_;
      return;
    }
    if (now < reregisterNotBeforeMs_) return;
  }
  try {
    SessionPtr session = registry_.connect(name_);
    try {
      registry_.create(
          paths::nodeAnnouncement(name_),
          paths::announceData("historical", options_.advertiseEndpoint),
          session,
          /*ephemeral=*/true);
    } catch (const AlreadyExists&) {
    }
    std::map<SegmentId, SegmentPtr> served;
    {
      MutexLock lock(mu_);
      served = served_;
    }
    for (const auto& [id, seg] : served) {
      (void)seg;
      try {
        registry_.create(paths::servedSegment(name_, id), id.toString(),
                         session, /*ephemeral=*/true);
      } catch (const AlreadyExists&) {
      }
    }
    {
      MutexLock lock(mu_);
      if (!running_) return;  // stopped while reconnecting
      session_ = std::move(session);
      reregisterBackoffMs_ = options_.reregisterBackoffMs;
      reregisterNotBeforeMs_ = 0;
    }
    obs_.counter(kReregistrations).inc();
    DPSS_LOG(Info) << name_ << " re-registered after session expiry";
  } catch (const Error& e) {
    obs_.counter(kReregisterFailures).inc();
    MutexLock lock(mu_);
    reregisterBackoffMs_ =
        std::min<TimeMs>(reregisterBackoffMs_ * 2, options_.reregisterBackoffMaxMs);
    reregisterNotBeforeMs_ = transport_.clock().nowMs() + reregisterBackoffMs_;
  }
}

void HistoricalNode::requestDrain() {
  SessionPtr session;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    session = session_;
  }
  try {
    // Persistent on purpose: the flag must survive this node's session
    // (and process) so a crash mid-drain resumes draining on restart. For
    // the same reason it must not depend on the lease being healthy — a
    // decommission can land mid-reregistration, so write through a
    // throwaway session when ours is dead.
    if (session == nullptr || session->expired()) {
      session = registry_.connect(name_ + ".drain");
    }
    registry_.create(paths::drainFlag(name_), paths::kDrainRequested, session,
                     /*ephemeral=*/false);
    DPSS_LOG(Info) << name_ << " drain requested";
  } catch (const AlreadyExists&) {
    // Already draining; idempotent.
  }
  draining_.store(true, std::memory_order_release);
}

void HistoricalNode::refreshDrainState() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
  }
  const auto flag = registry_.getData(paths::drainFlag(name_));
  draining_.store(flag.has_value(), std::memory_order_release);
  drainComplete_.store(flag.has_value() && *flag == paths::kDrainComplete,
                       std::memory_order_release);
}

void HistoricalNode::onLoadQueueEvent() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
  }
  for (const auto& entry : registry_.children(paths::loadQueue(name_))) {
    processAssignment(entry);
  }
}

void HistoricalNode::processAssignment(const std::string& entryName) {
  const std::string path = paths::loadQueue(name_) + "/" + entryName;
  const auto data = registry_.getData(path);
  if (!data) return;  // already acked by this node
  try {
    if (const auto load = paths::parseLoadEntry(*data)) {
      if (draining()) {
        // A draining node takes no new work. Ack-removing the entry (below)
        // is the refusal: the coordinator sees the pending load vanish and
        // places the replica on an active node instead.
        DPSS_LOG(Info) << name_ << " draining, refused load " << entryName;
      } else {
        loadSegment(load->id, load->deepStorageKey);
      }
    } else if (*data == "drop") {
      // Entry name is the escaped segment id; recover it from served set.
      std::optional<SegmentId> victim;
      {
        MutexLock lock(mu_);
        for (const auto& [id, seg] : served_) {
          (void)seg;
          if (paths::segmentNode(id) == entryName) {
            victim = id;
            break;
          }
        }
      }
      if (victim) dropSegment(*victim);
    }
  } catch (const Error& e) {
    DPSS_LOG(Warn) << name_ << " failed assignment " << entryName << ": "
                   << e.what();
    return;  // leave the queue entry so a later event retries
  }
  registry_.remove(path);  // ack
}

void HistoricalNode::loadSegment(const SegmentId& id, const std::string& key) {
  {
    MutexLock lock(mu_);
    if (served_.count(id) > 0) return;  // idempotent
  }
  obs::ScopedRegistry obsScope(obs_);
  obs::ScopedTimer loadTimer(obs_.histogram(kLoadNs));
  std::string blob;
  bool fromCache = false;
  {
    MutexLock lock(mu_);
    const auto it = localDisk_.find(key);
    if (it != localDisk_.end()) {
      blob = it->second;
      fromCache = true;
    }
  }
  if (fromCache) {
    cacheHits_.fetch_add(1);
    obs_.counter(kDiskCacheHits).inc();
  } else {
    bool healedByRefetch = false;
    try {
      // Verified download: only checksum-clean bytes ever reach the local
      // disk cache or a decoded scan. May throw Unavailable/NotFound.
      blob = deepStorage_.getVerified(key, &healedByRefetch);
    } catch (const CorruptData&) {
      // Leave the assignment queued: a replica holding good bytes must
      // re-upload before this node can load the segment.
      obs_.counter(kChecksumFailures).inc();
      throw;
    }
    if (healedByRefetch) {
      obs_.counter(kChecksumFailures).inc();
      obs_.counter(kRefetchHeals).inc();
    }
    downloads_.fetch_add(1);
    obs_.counter(kDownloads).inc();
    MutexLock lock(mu_);
    localDisk_[key] = blob;
  }
  SegmentPtr segment = storage::decodeSegment(blob);
  SessionPtr session;
  {
    MutexLock lock(mu_);
    served_[id] = std::move(segment);
    obs_.gauge(kServedGauge).set(static_cast<std::int64_t>(served_.size()));
    session = session_;
  }
  if (session == nullptr) throw Unavailable("node stopping: " + name_);
  obs_.counter(kSegmentsLoaded).inc();
  // Publish: the segment is queryable from this moment. The znode data is
  // the canonical id string (the znode name is an escaped, lossy form).
  registry_.create(paths::servedSegment(name_, id), id.toString(), session,
                   /*ephemeral=*/true);
  DPSS_LOG(Info) << name_ << " serving " << id.toString();
  // Self-heal: a cache-hit load skipped deep storage entirely, so check
  // whether the permanent copy rotted (or vanished) and re-upload this
  // node's good bytes — re-replication elsewhere depends on it.
  if (fromCache && !deepStorage_.verify(key)) {
    try {
      deepStorage_.put(key, blob);
      obs_.counter(kRepairs).inc();
      DPSS_LOG(Warn) << name_ << " re-uploaded corrupt/missing blob " << key;
    } catch (const Error& e) {
      DPSS_LOG(Warn) << name_ << " re-upload of " << key
                     << " failed: " << e.what();
    }
  }
}

void HistoricalNode::dropSegment(const SegmentId& id) {
  {
    MutexLock lock(mu_);
    served_.erase(id);
    obs_.gauge(kServedGauge).set(static_cast<std::int64_t>(served_.size()));
  }
  registry_.remove(paths::servedSegment(name_, id));
  DPSS_LOG(Info) << name_ << " dropped " << id.toString();
}

std::vector<SegmentId> HistoricalNode::servedSegments() const {
  MutexLock lock(mu_);
  std::vector<SegmentId> out;
  out.reserve(served_.size());
  for (const auto& [id, seg] : served_) {
    (void)seg;
    out.push_back(id);
  }
  return out;
}

bool HistoricalNode::serves(const SegmentId& id) const {
  MutexLock lock(mu_);
  return served_.count(id) > 0;
}

std::size_t HistoricalNode::pendingLoads() const {
  // Registry reads take the registry's own lock; mu_ must not be held
  // (lock order: node mutex before registry mutex, and this needs
  // neither).
  std::size_t pending = 0;
  const std::string queue = paths::loadQueue(name_);
  for (const auto& child : registry_.children(queue)) {
    const auto data = registry_.getData(queue + "/" + child);
    if (data && paths::parseLoadEntry(*data)) ++pending;
  }
  return pending;
}

bool HistoricalNode::cachedLocally(const std::string& key) const {
  MutexLock lock(mu_);
  return localDisk_.count(key) > 0;
}

void HistoricalNode::loadDocuments(const std::string& docSource,
                                   std::uint64_t baseIndex,
                                   std::vector<std::string> documents) {
  MutexLock lock(mu_);
  docSlices_[docSource] = DocSlice{baseIndex, std::move(documents)};
}

std::string HistoricalNode::handleRpc(const std::string& request) {
  if (request.empty()) throw CorruptData("empty rpc");
  const auto tag = static_cast<std::uint8_t>(request[0]);
  const std::string body = request.substr(1);

  // Everything node-side records into this node's registry; the trace
  // context was installed by the transport before we got here.
  obs::ScopedRegistry obsScope(obs_);

  if (tag == rpc::kQuerySegment) {
    obs::SpanGuard rpcSpan("historical.query_segment");
    const auto req = decodeScatterRequest(body);
    rpcSpan.tag("segments", std::to_string(req.segments.size()));
    // nullptr marks a segment this node does not serve (any more).
    std::vector<SegmentPtr> segments(req.segments.size());
    std::shared_ptr<ThreadPool> pool;
    {
      MutexLock lock(mu_);
      for (std::size_t i = 0; i < segments.size(); ++i) {
        const auto it = served_.find(req.segments[i]);
        if (it != served_.end()) segments[i] = it->second;
      }
      pool = pool_;  // pin across a concurrent crash()/stop()
    }
    if (pool == nullptr) throw Unavailable("node stopping: " + name_);
    // One task per served segment on the node's bounded pool ("one thread
    // scans a segment"); the pool enforces the paper's threads-per-node
    // cap across concurrent requests. The handler drains every future
    // before it returns or rethrows, so the tasks may borrow `req`.
    const obs::TraceContext traceCtx = obs::currentTraceContext();
    std::vector<std::future<SegmentScan>> futures(segments.size());
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (segments[i] == nullptr) continue;
      futures[i] = pool->submit([this, &req, segment = segments[i],
                                 traceCtx] {
        obs::ScopedRegistry scanScope(obs_);
        obs::TraceScope traceScope(traceCtx);
        query::QueryResult partial;
        std::uint64_t scanNs = 0;
        {
          obs::SpanGuard scanSpan("historical.scan.segment");
          obs_.counter(kSegmentsScanned).inc();
          const std::uint64_t startNs = obs::nowNanos();
          partial = query::scanSegment(*segment, req.spec);
          scanNs = obs::nowNanos() - startNs;
        }
        obs_.histogram(kScanNs).observe(scanNs);
        ByteWriter w;
        partial.serialize(w);
        return SegmentScan{true, scanNs, w.take()};
      });
    }
    std::vector<SegmentScan> scans(segments.size());
    std::exception_ptr firstError;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      if (!futures[i].valid()) continue;  // not served: flag stays false
      try {
        scans[i] = futures[i].get();
      } catch (const std::future_error&) {
        // The pool died under us anyway; to the caller this is a node
        // loss.
        if (!firstError) {
          firstError = std::make_exception_ptr(
              Unavailable("node stopped mid-scan: " + name_));
        }
      } catch (...) {
        if (!firstError) firstError = std::current_exception();
      }
    }
    if (firstError) std::rethrow_exception(firstError);
    return encodeScatterReply(scans);
  }

  if (tag == rpc::kPssInfo) {
    ByteReader r(body);
    const std::string docSource = r.str();
    MutexLock lock(mu_);
    const auto it = docSlices_.find(docSource);
    if (it == docSlices_.end()) {
      throw NotFound("no document slice for: " + docSource);
    }
    std::size_t maxPayload = 0;
    for (const auto& d : it->second.documents) {
      maxPayload = std::max(maxPayload, d.size());
    }
    ByteWriter w;
    w.u64(it->second.baseIndex);
    w.varint(it->second.documents.size());
    w.varint(maxPayload);
    return w.take();
  }

  if (tag == rpc::kPssSearch) {
    obs::SpanGuard sliceSpan("historical.pss.slice_search");
    obs_.counter(kPssSlices).inc();
    ByteReader r(body);
    const std::string docSource = r.str();
    // Every word costs at least its 1-byte length prefix.
    const std::uint64_t dictSize = r.count(1);
    std::vector<std::string> words;
    words.reserve(dictSize);
    for (std::uint64_t i = 0; i < dictSize; ++i) words.push_back(r.str());
    auto encQuery = pss::EncryptedQuery::deserialize(r);
    const std::size_t blocks = r.varint();
    const std::uint64_t seed = r.u64();
    if (r.remaining() != 0) {
      throw CorruptData("trailing bytes after pss search request");
    }

    DocSlice slice;
    {
      MutexLock lock(mu_);
      const auto it = docSlices_.find(docSource);
      if (it == docSlices_.end()) {
        throw NotFound("no document slice for: " + docSource);
      }
      slice = it->second;
    }
    std::shared_ptr<ThreadPool> pool;
    {
      MutexLock lock(mu_);
      pool = pool_;  // pin across a concurrent crash()/stop()
    }
    if (pool == nullptr) throw Unavailable("node stopping: " + name_);
    // The slice fold runs as one task on the node's bounded pool, like a
    // segment scan, so concurrent searches share the threads-per-node cap.
    // The handler blocks on the result, so the task may borrow its locals.
    const obs::TraceContext traceCtx = obs::currentTraceContext();
    auto fut = pool->submit([&] {
      obs::ScopedRegistry foldScope(obs_);
      obs::TraceScope traceScope(traceCtx);
      const pss::Dictionary dict(words);
      Rng rng(seed);
      pss::StreamSearcher searcher(dict, std::move(encQuery), blocks, rng);
      for (std::size_t i = 0; i < slice.documents.size(); ++i) {
        searcher.processSegment(slice.baseIndex + i, slice.documents[i]);
      }
      return searcher.finish();
    });
    pss::SearchResultEnvelope envelope;
    try {
      envelope = fut.get();
    } catch (const std::future_error&) {
      // The pool died under us anyway; to the caller this is a node loss.
      throw Unavailable("node stopped mid-search: " + name_);
    }
    ByteWriter w;
    envelope.serialize(w);
    return w.take();
  }

  throw CorruptData("unknown rpc tag");
}

}  // namespace dpss::cluster
