#include "cluster/realtime_node.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "cluster/names.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "storage/segment_builder.h"
#include "storage/segment_codec.h"

namespace dpss::cluster {

using storage::SegmentId;
using storage::SegmentPtr;

namespace {

const obs::MetricId kEventsIngested =
    obs::internCounter("realtime.events.ingested");
const obs::MetricId kPersistCount = obs::internCounter("realtime.persist.count");
const obs::MetricId kPersistNs = obs::internHistogram("realtime.persist.ns");
const obs::MetricId kHandoffCount = obs::internCounter("realtime.handoff.count");
const obs::MetricId kScanCount =
    obs::internCounter("realtime.segments.scanned");
const obs::MetricId kScanNs = obs::internHistogram("realtime.scan.ns");
const obs::MetricId kHandoffFailures =
    obs::internCounter("realtime.handoff.failures");
const obs::MetricId kReregistrations =
    obs::internCounter("realtime.registry.reregistrations");
const obs::MetricId kReregisterFailures =
    obs::internCounter("realtime.registry.reregister_failures");
const obs::MetricId kSubstrateUnavailable =
    obs::internCounter("realtime.substrate_unavailable");

}  // namespace

RealtimeNode::RealtimeNode(std::string name, Registry& registry,
                           MessageQueue& queue, std::string topic,
                           std::size_t partition,
                           storage::DeepStorage& deepStorage,
                           MetaStore& metaStore, TransportIface& transport,
                           Clock& clock, storage::Schema schema,
                           std::string dataSource, NodeDisk& disk,
                           RealtimeNodeOptions options)
    : name_(std::move(name)),
      registry_(registry),
      queue_(queue),
      topic_(std::move(topic)),
      partition_(partition),
      deepStorage_(deepStorage),
      metaStore_(metaStore),
      transport_(transport),
      clock_(clock),
      schema_(std::move(schema)),
      dataSource_(std::move(dataSource)),
      disk_(disk),
      options_(options),
      subsHost_(name_, dataSource_, disk_.subscriptions, clock_,
                options_.subscriptions) {
  DPSS_CHECK_MSG(options_.segmentGranularityMs > 0, "granularity must be > 0");
}

RealtimeNode::~RealtimeNode() { stop(); }

TimeMs RealtimeNode::bucketStart(TimeMs t) const {
  const TimeMs g = options_.segmentGranularityMs;
  TimeMs b = t - (t % g);
  if (t < 0 && t % g != 0) b -= g;
  return b;
}

SegmentId RealtimeNode::realtimeSegmentId(TimeMs bucket) const {
  SegmentId id;
  id.dataSource = dataSource_;
  id.interval = Interval(bucket, bucket + options_.segmentGranularityMs);
  // All real-time partitions of a stream share one version so none
  // overshadows another ("each real-time segment has a partition
  // number"); "rt" < "v..." lexicographically, so a handed-off historical
  // version always overshadows the live one.
  id.version = SegmentId::kRealtimeVersion;
  id.partition = static_cast<std::uint32_t>(partition_);
  return id;
}

void RealtimeNode::start() {
  SessionPtr session;
  std::uint64_t startOffset = 0;
  {
    MutexLock lock(mu_);
    DPSS_CHECK_MSG(!running_, "node already running");
    session_ = registry_.connect(name_);
    session = session_;
    running_ = true;
    // Recovery: "reload any index which has been persisted to disk and
    // then read the message queue from the last committed offset".
    offset_ = queue_.committed(name_, topic_, partition_);
    startOffset = offset_;
    lastPersist_ = clock_.nowMs();
    // Handoff versions must keep increasing across restarts so newer
    // re-handoffs overshadow older ones; seed the sequence from the clock.
    if (versionCounter_ == 0) {
      versionCounter_ = static_cast<std::uint64_t>(clock_.nowMs()) * 1000;
    }
  }
  try {
    registry_.create(paths::nodeAnnouncement(name_), "realtime", session,
                     /*ephemeral=*/true);
  } catch (...) {
    // Announce conflict (a crashed predecessor's ephemeral not yet swept)
    // or registry outage: roll back so the caller can retry start().
    MutexLock lock(mu_);
    running_ = false;
    session_.reset();
    throw;
  }
  transport_.bind(name_, [this](const std::string& req) {
    return handleRpc(req);
  });
  // Re-announce buckets with surviving persisted data.
  {
    MutexLock lock(mu_);
    for (const auto& [bucket, snaps] : disk_.persisted) {
      if (!snaps.empty()) announced_.try_emplace(bucket, false);
    }
  }
  announcePending();
  // Rebuild standing matchers from the specs that survived on disk; their
  // seq counters and unacked snapshots resume where the crash left them.
  subsHost_.restore();
  DPSS_LOG(Info) << "realtime node " << name_ << " online from offset "
                 << startOffset;
}

void RealtimeNode::stop() {
  // Graceful shutdown flushes live indexes and commits the consumed
  // offset, so a restart resumes without re-scanning. crash() skips this
  // flush — that durability gap is exactly what replay-from-committed-
  // offset recovery covers.
  std::uint64_t offsetToCommit = 0;
  bool flushed = false;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    for (auto& [bucket, index] : live_) {
      if (index == nullptr || index->empty()) continue;
      SegmentId snapId = realtimeSegmentId(bucket);
      snapId.version += "-p" + std::to_string(disk_.persisted[bucket].size());
      disk_.persisted[bucket].push_back(index->persistAndClear(snapId));
    }
    offsetToCommit = offset_;
    flushed = true;
  }
  if (flushed) {
    // Seal-before-commit: every subscription batch reaches disk before
    // the offset does, so nothing at or below the commit is only in RAM.
    subsHost_.sealAll();
    queue_.commit(name_, topic_, partition_, offsetToCommit);
  }
  teardown();
}

void RealtimeNode::crash() {
  // Abrupt failure: the un-persisted incremental index dies with the
  // process and the committed offset stays wherever the last persist left
  // it — start() re-consumes the gap from the message queue.
  teardown();
}

void RealtimeNode::teardown() {
  SessionPtr session;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
    live_.clear();
    announced_.clear();
    awaitingServe_.clear();
    session = std::move(session_);
    session_.reset();
  }
  transport_.unbind(name_);
  registry_.expire(session);
}

void RealtimeNode::loseRegistrySession() {
  SessionPtr session;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    session = session_;
  }
  registry_.expire(session);
  DPSS_LOG(Warn) << name_ << " lost registry session (lease expiry)";
}

void RealtimeNode::maybeReregister() {
  {
    MutexLock lock(mu_);
    if (!running_ || session_ == nullptr || !session_->expired()) return;
    const TimeMs now = clock_.nowMs();
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
      registry_.create(paths::nodeAnnouncement(name_), "realtime", session,
                       /*ephemeral=*/true);
    } catch (const AlreadyExists&) {
    }
    std::vector<TimeMs> buckets;
    {
      MutexLock lock(mu_);
      if (!running_) return;  // stopped while reconnecting
      for (const auto& [bucket, flag] : announced_) {
        if (flag) buckets.push_back(bucket);
      }
      session_ = session;
      reregisterBackoffMs_ = options_.reregisterBackoffMs;
      reregisterNotBeforeMs_ = 0;
    }
    for (const auto bucket : buckets) {
      const SegmentId id = realtimeSegmentId(bucket);
      try {
        registry_.create(paths::servedSegment(name_, id), id.toString(),
                         session, /*ephemeral=*/true);
      } catch (const AlreadyExists&) {
      }
    }
    obs_.counter(kReregistrations).inc();
    DPSS_LOG(Info) << name_ << " re-registered after session expiry";
  } catch (const Error& e) {
    obs_.counter(kReregisterFailures).inc();
    MutexLock lock(mu_);
    reregisterBackoffMs_ = std::min<TimeMs>(reregisterBackoffMs_ * 2,
                                            options_.reregisterBackoffMaxMs);
    reregisterNotBeforeMs_ = clock_.nowMs() + reregisterBackoffMs_;
  }
}

void RealtimeNode::tick() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
  }
  maybeReregister();
  const auto substrateStep = [this](auto&& step) {
    try {
      step();
    } catch (const Unavailable& e) {
      obs_.counter(kSubstrateUnavailable).inc();
      DPSS_LOG(Warn) << name_ << " substrate unavailable: " << e.what();
    }
  };
  substrateStep([this] {
    ingest();
    announcePending();
  });
  subsHost_.sealDue();
  persistIfDue();
  substrateStep([this] { handoffIfDue(); });
}

void RealtimeNode::ingest() {
  obs::ScopedRegistry obsScope(obs_);
  for (;;) {
    std::uint64_t pollFrom = 0;
    {
      MutexLock lock(mu_);
      pollFrom = offset_;
    }
    const auto messages =
        queue_.poll(topic_, partition_, pollFrom, options_.maxPollBatch);
    if (messages.empty()) return;
    obs_.counter(kEventsIngested).inc(messages.size());
    std::vector<storage::InputRow> rows;
    rows.reserve(messages.size());
    for (const auto& m : messages) {
      rows.push_back(storage::decodeInputRow(m.payload));
    }
    {
      MutexLock lock(mu_);
      for (std::size_t i = 0; i < messages.size(); ++i) {
        const auto& row = rows[i];
        const TimeMs bucket = bucketStart(row.timestamp);
        auto& index = live_[bucket];
        if (index == nullptr) {
          index = std::make_unique<storage::IncrementalIndex>(
              schema_, options_.rollupGranularityMs);
          announced_.try_emplace(bucket, false);
        }
        index->add(row);
        ++eventsIngested_;
        offset_ = messages[i].offset + 1;
      }
    }
    // Standing subscriptions: match every ingested document outside mu_
    // (the host has its own lock, and the homomorphic fold is by far the
    // most expensive step of this loop). The dictionary matches against
    // the row's dimension values; the recoverable payload is the raw
    // queue message, so the client reconstructs the full event.
    for (std::size_t i = 0; i < messages.size(); ++i) {
      std::string matchText;
      for (const auto& d : rows[i].dimensions) {
        if (!matchText.empty()) matchText += ' ';
        matchText += d;
      }
      subsHost_.onDocument(messages[i].offset, matchText,
                           messages[i].payload);
    }
  }
}

void RealtimeNode::announcePending() {
  std::vector<TimeMs> pending;
  SessionPtr session;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    for (const auto& [bucket, announced] : announced_) {
      if (!announced) pending.push_back(bucket);
    }
    session = session_;
  }
  for (const auto bucket : pending) {
    const SegmentId id = realtimeSegmentId(bucket);
    try {
      registry_.create(paths::servedSegment(name_, id), id.toString(),
                       session, /*ephemeral=*/true);
    } catch (const AlreadyExists&) {
      // Restart within the same process lifetime; announcement persists.
    }
    MutexLock lock(mu_);
    const auto it = announced_.find(bucket);
    if (it != announced_.end()) it->second = true;
  }
}

void RealtimeNode::persistIfDue() {
  const TimeMs now = clock_.nowMs();
  std::uint64_t offsetToCommit = 0;
  obs::ScopedRegistry obsScope(obs_);
  {
    MutexLock lock(mu_);
    if (now - lastPersist_ < options_.persistPeriodMs) return;
    lastPersist_ = now;
    obs_.counter(kPersistCount).inc();
    obs::ScopedTimer persistTimer(obs_.histogram(kPersistNs));
    for (auto& [bucket, index] : live_) {
      if (index == nullptr || index->empty()) continue;
      // Each persisted index is unchangeable.
      SegmentId snapId = realtimeSegmentId(bucket);
      snapId.version += "-p" + std::to_string(disk_.persisted[bucket].size());
      disk_.persisted[bucket].push_back(index->persistAndClear(snapId));
    }
    offsetToCommit = offset_;
  }
  // Seal-before-commit: subscription batches covering offsets at or below
  // the commit must be on disk before the offset moves, otherwise a crash
  // right after the commit would lose matches the queue never replays.
  subsHost_.sealAll();
  // "a real-time compute node uses the offset of the last message of the
  // most recently persisted index to update the message queue".
  queue_.commit(name_, topic_, partition_, offsetToCommit);
  DPSS_LOG(Info) << name_ << " persisted indexes, committed offset "
                 << offsetToCommit;
}

void RealtimeNode::handoffIfDue() {
  const TimeMs now = clock_.nowMs();

  // Phase 1: buckets past end + window -> merge, upload, register.
  std::vector<TimeMs> ready;
  {
    MutexLock lock(mu_);
    for (const auto& [bucket, flag] : announced_) {
      (void)flag;
      if (awaitingServe_.count(bucket) > 0) continue;
      const TimeMs bucketEnd = bucket + options_.segmentGranularityMs;
      if (bucketEnd + options_.windowMs <= now) ready.push_back(bucket);
    }
  }
  for (const auto bucket : ready) {
    std::vector<SegmentPtr> parts;
    {
      MutexLock lock(mu_);
      // Late data still in memory joins the merge.
      auto liveIt = live_.find(bucket);
      if (liveIt != live_.end() && liveIt->second != nullptr &&
          !liveIt->second->empty()) {
        SegmentId snapId = realtimeSegmentId(bucket);
        snapId.version +=
            "-p" + std::to_string(disk_.persisted[bucket].size());
        disk_.persisted[bucket].push_back(
            liveIt->second->persistAndClear(snapId));
      }
      parts = disk_.persisted[bucket];
    }
    SegmentId historicalId;
    historicalId.dataSource = dataSource_;
    historicalId.interval =
        Interval(bucket, bucket + options_.segmentGranularityMs);
    std::uint64_t version = 0;
    {
      MutexLock lock(mu_);
      version = ++versionCounter_;
    }
    char versionBuf[32];
    std::snprintf(versionBuf, sizeof(versionBuf), "v%020" PRIu64, version);
    historicalId.version = versionBuf;
    historicalId.partition = static_cast<std::uint32_t>(partition_);

    if (parts.empty()) {
      // Nothing ever arrived for this bucket; just unannounce.
      MutexLock lock(mu_);
      awaitingServe_[bucket] = PendingHandoff{historicalId};
      continue;
    }
    const SegmentPtr merged = storage::mergeSegments(parts, historicalId);
    const std::string blob = storage::encodeSegment(*merged);
    const std::string key = historicalId.toString();
    try {
      deepStorage_.put(key, blob);
    } catch (const Error& e) {
      // Upload-side outage: the bucket stays announced (still queryable
      // live) and the next tick retries the whole handoff under a fresh
      // version. No data is lost, only delayed.
      obs_.counter(kHandoffFailures).inc();
      DPSS_LOG(Warn) << name_ << " handoff upload failed for " << key << ": "
                     << e.what();
      continue;
    }
    SegmentRecord record;
    record.id = historicalId;
    record.deepStorageKey = key;
    record.sizeBytes = blob.size();
    metaStore_.upsertSegment(record);
    {
      MutexLock lock(mu_);
      awaitingServe_[bucket] = PendingHandoff{historicalId};
    }
    obs_.counter(kHandoffCount).inc();
    DPSS_LOG(Info) << name_ << " handed off " << historicalId.toString();
  }

  // Phase 2: buckets whose historical segment is now served somewhere ->
  // delete local state and unannounce ("publish it will never serve this
  // segment").
  std::vector<TimeMs> done;
  {
    MutexLock lock(mu_);
    for (const auto& [bucket, pending] : awaitingServe_) {
      const std::string segName = paths::segmentNode(pending.historicalId);
      bool servedSomewhere = disk_.persisted[bucket].empty();  // empty bucket
      if (!servedSomewhere) {
        for (const auto& node : registry_.children(paths::announcements())) {
          if (node == name_) continue;
          if (registry_.exists(paths::nodeAnnouncement(node) + "/" +
                               segName)) {
            servedSomewhere = true;
            break;
          }
        }
      }
      if (servedSomewhere) done.push_back(bucket);
    }
    for (const auto bucket : done) {
      live_.erase(bucket);
      disk_.persisted.erase(bucket);
      awaitingServe_.erase(bucket);
      announced_.erase(bucket);
    }
  }
  for (const auto bucket : done) {
    registry_.remove(paths::servedSegment(name_, realtimeSegmentId(bucket)));
    DPSS_LOG(Info) << name_ << " retired real-time segment for bucket "
                   << bucket;
  }
}

std::size_t RealtimeNode::pendingHandoffs() const {
  MutexLock lock(mu_);
  return awaitingServe_.size();
}

std::vector<SegmentId> RealtimeNode::announcedSegments() const {
  MutexLock lock(mu_);
  std::vector<SegmentId> out;
  for (const auto& [bucket, flag] : announced_) {
    if (flag) out.push_back(realtimeSegmentId(bucket));
  }
  return out;
}

std::string RealtimeNode::handleRpc(const std::string& request) {
  if (request.empty()) throw CorruptData("empty rpc");
  const auto tag = static_cast<std::uint8_t>(request[0]);
  obs::ScopedRegistry obsScope(obs_);
  if (tag == rpc::kSubscribe || tag == rpc::kUnsubscribe ||
      tag == rpc::kSnapshot) {
    return subsHost_.handleRpc(request);
  }
  if (tag != rpc::kQuerySegment) throw CorruptData("unsupported rpc");
  obs::SpanGuard rpcSpan("realtime.query_segment");
  const auto req = SegmentQueryRequest::decode(request.substr(1));
  rpcSpan.tag("segment", req.segment.toString());

  // "The real-time compute node maintains a comprehensive view of the
  // current index being updated and of all indexes persisted to disk.
  // This comprehensive view allows all indexes on a node to be queried."
  const TimeMs bucket = req.segment.interval.start();
  std::vector<SegmentPtr> view;
  {
    MutexLock lock(mu_);
    const auto diskIt = disk_.persisted.find(bucket);
    if (diskIt != disk_.persisted.end()) {
      view = diskIt->second;
    }
    const auto liveIt = live_.find(bucket);
    if (liveIt != live_.end() && liveIt->second != nullptr &&
        !liveIt->second->empty()) {
      view.push_back(liveIt->second->snapshot(req.segment));
    }
  }
  query::QueryResult result;
  {
    obs::ScopedTimer scanTimer(obs_.histogram(kScanNs));
    for (const auto& part : view) {
      result.mergeFrom(query::scanSegment(*part, req.spec));
    }
  }
  if (!view.empty()) obs_.counter(kScanCount).inc();
  result.segmentsScanned = view.empty() ? 0 : 1;
  ByteWriter w;
  result.serialize(w);
  return w.take();
}

}  // namespace dpss::cluster
