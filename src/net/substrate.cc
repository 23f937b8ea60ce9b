#include "net/substrate.h"

#include <algorithm>
#include <set>

#include "cluster/meta_codec.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/logging.h"

namespace dpss::net {

namespace {

using cluster::LoadRules;
using cluster::RegistryEntry;
using cluster::SegmentRecord;
using cluster::SubscriptionRecord;

// Row codecs are shared with the metastore journal (one format on the
// wire and on disk).
using cluster::meta_codec::readRecord;
using cluster::meta_codec::readRecords;
using cluster::meta_codec::readRules;
using cluster::meta_codec::readSubscription;
using cluster::meta_codec::readSubscriptions;
using cluster::meta_codec::writeRecord;
using cluster::meta_codec::writeRecords;
using cluster::meta_codec::writeRules;
using cluster::meta_codec::writeSubscription;
using cluster::meta_codec::writeSubscriptions;

/// Request builder: [rpc::kSubstrate][subop][args...].
ByteWriter subRequest(std::uint8_t subop) {
  ByteWriter w;
  w.u8(cluster::rpc::kSubstrate);
  w.u8(subop);
  return w;
}

}  // namespace

// --- SubstrateService ----------------------------------------------------

SubstrateService::SubstrateService(cluster::Registry& registry,
                                   cluster::MetaStore& metaStore,
                                   storage::DeepStorage& deepStorage,
                                   Clock& clock, TimeMs leaseMs)
    : registry_(registry),
      metaStore_(metaStore),
      deepStorage_(deepStorage),
      clock_(clock),
      leaseMs_(leaseMs) {}

cluster::RpcHandler SubstrateService::handler() {
  return [this](const std::string& body) { return handle(body); };
}

std::size_t SubstrateService::liveSessionCount() const {
  MutexLock lock(mu_);
  return leases_.size();
}

std::size_t SubstrateService::sweepExpiredLeases() {
  std::vector<cluster::SessionPtr> expired;
  {
    MutexLock lock(mu_);
    const TimeMs now = clock_.nowMs();
    for (auto it = leases_.begin(); it != leases_.end();) {
      if (now - it->second.lastBeatMs > leaseMs_) {
        expired.push_back(it->second.session);
        it = leases_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Expire outside the lock: registry watches fire synchronously.
  for (const auto& session : expired) {
    DPSS_LOG(Warn) << "substrate: lease expired for session of '"
                   << session->owner() << "'";
    registry_.expire(session);
  }
  return expired.size();
}

std::string SubstrateService::handle(const std::string& body) {
  ByteReader r(body);
  const std::uint8_t tag = r.u8();
  if (tag != cluster::rpc::kSubstrate) {
    throw InvalidArgument("substrate handler got rpc tag " +
                          std::to_string(tag));
  }
  const std::uint8_t subop = r.u8();
  ByteWriter w;
  // Resolves a session token, refreshing its lease.
  const auto sessionFor = [this](std::uint64_t token) {
    MutexLock lock(mu_);
    const auto it = leases_.find(token);
    if (it == leases_.end()) {
      throw Unavailable("substrate: unknown or expired session token");
    }
    it->second.lastBeatMs = clock_.nowMs();
    return it->second.session;
  };

  switch (subop) {
    case substrate_op::kRegOpenSession: {
      const std::string owner = r.str();
      cluster::SessionPtr session = registry_.connect(owner);
      MutexLock lock(mu_);
      const std::uint64_t token = nextToken_++;
      leases_[token] = Lease{std::move(session), clock_.nowMs()};
      w.u64(token);
      break;
    }
    case substrate_op::kRegHeartbeat: {
      const std::uint64_t token = r.u64();
      MutexLock lock(mu_);
      const auto it = leases_.find(token);
      if (it == leases_.end()) {
        w.u8(0);
      } else {
        it->second.lastBeatMs = clock_.nowMs();
        w.u8(1);
      }
      break;
    }
    case substrate_op::kRegCloseSession: {
      const std::uint64_t token = r.u64();
      cluster::SessionPtr session;
      {
        MutexLock lock(mu_);
        const auto it = leases_.find(token);
        if (it != leases_.end()) {
          session = it->second.session;
          leases_.erase(it);
        }
      }
      if (session != nullptr) registry_.expire(session);
      break;
    }
    case substrate_op::kRegCreate: {
      const std::uint64_t token = r.u64();
      const std::string path = r.str();
      const std::string data = r.str();
      const bool ephemeral = r.u8() != 0;
      registry_.create(path, data, sessionFor(token), ephemeral);
      w.u64(registry_.version());
      break;
    }
    case substrate_op::kRegSetData: {
      const std::string path = r.str();
      const std::string data = r.str();
      registry_.setData(path, data);
      w.u64(registry_.version());
      break;
    }
    case substrate_op::kRegRemove: {
      const std::string path = r.str();
      registry_.remove(path);
      w.u64(registry_.version());
      break;
    }
    case substrate_op::kRegCreateFenced: {
      const std::uint64_t token = r.u64();
      const std::string path = r.str();
      const std::string data = r.str();
      const bool ephemeral = r.u8() != 0;
      const std::string fencePath = r.str();
      const std::uint64_t epoch = r.u64();
      registry_.createFenced(path, data, sessionFor(token), ephemeral,
                             fencePath, epoch);
      w.u64(registry_.version());
      break;
    }
    case substrate_op::kRegSetDataFenced: {
      const std::string path = r.str();
      const std::string data = r.str();
      const std::string fencePath = r.str();
      const std::uint64_t epoch = r.u64();
      registry_.setDataFenced(path, data, fencePath, epoch);
      w.u64(registry_.version());
      break;
    }
    case substrate_op::kRegAcquireLeader: {
      const std::uint64_t token = r.u64();
      const std::string leaderPath = r.str();
      const std::string epochPath = r.str();
      const std::string ownerTag = r.str();
      const std::uint64_t epoch = registry_.acquireLeadership(
          leaderPath, epochPath, ownerTag, sessionFor(token));
      w.u64(epoch);
      w.u64(registry_.version());
      break;
    }
    case substrate_op::kRegSnapshot: {
      // Version first, read before the dump: a concurrent mutation can
      // only make the dump newer than the version, and a too-old version
      // just means the mirror re-pulls next round.
      w.u64(registry_.version());
      const auto entries = registry_.dump();
      w.varint(entries.size());
      for (const auto& e : entries) {
        w.str(e.path);
        w.str(e.data);
        w.u8(e.ephemeral ? 1 : 0);
      }
      break;
    }
    case substrate_op::kMetaUpsert:
      metaStore_.upsertSegment(readRecord(r));
      break;
    case substrate_op::kMetaMarkUnused:
      metaStore_.markUnused(storage::SegmentId::deserialize(r));
      break;
    case substrate_op::kMetaGet: {
      const auto rec = metaStore_.getSegment(storage::SegmentId::deserialize(r));
      w.u8(rec.has_value() ? 1 : 0);
      if (rec.has_value()) writeRecord(w, *rec);
      break;
    }
    case substrate_op::kMetaUsed:
      writeRecords(w, metaStore_.usedSegments());
      break;
    case substrate_op::kMetaAll:
      writeRecords(w, metaStore_.allSegments());
      break;
    case substrate_op::kMetaSetRules: {
      const std::string ds = r.str();
      metaStore_.setRules(ds, readRules(r));
      break;
    }
    case substrate_op::kMetaRulesFor:
      writeRules(w, metaStore_.rulesFor(r.str()));
      break;
    case substrate_op::kMetaSetDefaultRules:
      metaStore_.setDefaultRules(readRules(r));
      break;
    case substrate_op::kMetaSubUpsert:
      metaStore_.upsertSubscription(readSubscription(r));
      break;
    case substrate_op::kMetaSubRemove:
      metaStore_.removeSubscription(r.varint());
      break;
    case substrate_op::kMetaSubList:
      writeSubscriptions(w, metaStore_.subscriptions());
      break;
    case substrate_op::kDsPut: {
      const std::string key = r.str();
      deepStorage_.put(key, r.str());
      break;
    }
    case substrate_op::kDsGet:
      w.str(deepStorage_.get(r.str()));
      break;
    case substrate_op::kDsExists:
      w.u8(deepStorage_.exists(r.str()) ? 1 : 0);
      break;
    case substrate_op::kDsRemove:
      deepStorage_.remove(r.str());
      break;
    case substrate_op::kDsList: {
      const auto keys = deepStorage_.list();
      w.varint(keys.size());
      for (const auto& k : keys) w.str(k);
      break;
    }
    case substrate_op::kDsChecksum: {
      const auto sum = deepStorage_.storedChecksum(r.str());
      w.u8(sum.has_value() ? 1 : 0);
      if (sum.has_value()) w.u64(*sum);
      break;
    }
    case substrate_op::kDsVerify:
      w.u8(deepStorage_.verify(r.str()) ? 1 : 0);
      break;
    default:
      throw InvalidArgument("substrate: unknown sub-op " +
                            std::to_string(subop));
  }
  return w.take();
}

// --- RemoteRegistry ------------------------------------------------------

RemoteRegistry::RemoteRegistry(cluster::TransportIface& transport,
                               std::string substrateNode,
                               RemoteRegistryOptions options)
    : transport_(transport),
      substrateNode_(std::move(substrateNode)),
      options_(options) {}

RemoteRegistry::~RemoteRegistry() { stop(); }

std::string RemoteRegistry::call(const std::string& bytes) {
  return cluster::callWithPolicy(transport_, substrateNode_, bytes,
                                 options_.rpc);
}

void RemoteRegistry::start() {
  bool expected = false;
  if (!threadsRunning_.compare_exchange_strong(expected, true)) return;
  // Heartbeats ride their own thread so a long reconcile (watch
  // callbacks may download segments) can never starve the lease.
  const auto sleepChunked = [this](TimeMs total) {
    // 10ms granularity so stop() is prompt without a timed condvar.
    for (TimeMs slept = 0; slept < total && threadsRunning_.load();
         slept += 10) {
      transport_.clock().sleepFor(10);
    }
  };
  syncThread_ = std::thread([this, sleepChunked] {
    while (threadsRunning_.load()) {
      try {
        syncNow();
      } catch (const Error& e) {
        DPSS_LOG(Debug) << "remote registry: sync failed: " << e.what();
      }
      sleepChunked(options_.syncIntervalMs);
    }
  });
  heartbeatThread_ = std::thread([this, sleepChunked] {
    while (threadsRunning_.load()) {
      try {
        heartbeatNow();
      } catch (const Error& e) {
        DPSS_LOG(Debug) << "remote registry: heartbeat failed: " << e.what();
      }
      sleepChunked(options_.heartbeatIntervalMs);
    }
  });
}

void RemoteRegistry::stop() {
  if (!threadsRunning_.exchange(false)) return;
  if (syncThread_.joinable()) syncThread_.join();
  if (heartbeatThread_.joinable()) heartbeatThread_.join();
}

std::optional<std::uint64_t> RemoteRegistry::tokenFor(
    const cluster::SessionPtr& session) {
  if (session == nullptr) return std::nullopt;
  MutexLock lock(mu_);
  const auto it = sessions_.find(session->id());
  if (it == sessions_.end()) return std::nullopt;
  return it->second.token;
}

cluster::SessionPtr RemoteRegistry::connect(const std::string& ownerName) {
  // Open the authority session first: if the substrate is unreachable
  // the caller gets Unavailable and no local state is created.
  ByteWriter req = subRequest(substrate_op::kRegOpenSession);
  req.str(ownerName);
  OwnedByteReader resp(call(req.take()));
  const std::uint64_t token = resp.u64();

  cluster::SessionPtr session = Registry::connect(ownerName);
  MutexLock lock(mu_);
  sessions_[session->id()] = SessionRef{token, session};
  return session;
}

void RemoteRegistry::create(const std::string& path, const std::string& data,
                            const cluster::SessionPtr& session,
                            bool ephemeral) {
  const auto token = tokenFor(session);
  if (!token.has_value()) {
    throw Unavailable("remote registry: session has no authority token");
  }
  std::lock_guard<std::recursive_mutex> sync(syncMu_);
  ByteWriter req = subRequest(substrate_op::kRegCreate);
  req.u64(*token);
  req.str(path);
  req.str(data);
  req.u8(ephemeral ? 1 : 0);
  OwnedByteReader resp(call(req.take()));
  mutationFloor_ = std::max(mutationFloor_, resp.u64());
  // Mirror apply is best-effort: the sync loop may already have pulled
  // this write (then the data matches), and reconcile fixes any drift.
  try {
    Registry::create(path, data, session, ephemeral);
  } catch (const AlreadyExists&) {
    try {
      Registry::setData(path, data);
    } catch (const Error&) {
    }
  }
}

void RemoteRegistry::setData(const std::string& path, const std::string& data) {
  std::lock_guard<std::recursive_mutex> sync(syncMu_);
  ByteWriter req = subRequest(substrate_op::kRegSetData);
  req.str(path);
  req.str(data);
  OwnedByteReader resp(call(req.take()));
  mutationFloor_ = std::max(mutationFloor_, resp.u64());
  try {
    Registry::setData(path, data);
  } catch (const NotFound&) {
    // Mirror lags; reconcile will create it.
  }
}

void RemoteRegistry::remove(const std::string& path) {
  std::lock_guard<std::recursive_mutex> sync(syncMu_);
  ByteWriter req = subRequest(substrate_op::kRegRemove);
  req.str(path);
  OwnedByteReader resp(call(req.take()));
  mutationFloor_ = std::max(mutationFloor_, resp.u64());
  Registry::remove(path);
}

void RemoteRegistry::createFenced(const std::string& path,
                                  const std::string& data,
                                  const cluster::SessionPtr& session,
                                  bool ephemeral, const std::string& fencePath,
                                  std::uint64_t epoch) {
  const auto token = tokenFor(session);
  if (!token.has_value()) {
    throw Unavailable("remote registry: session has no authority token");
  }
  std::lock_guard<std::recursive_mutex> sync(syncMu_);
  ByteWriter req = subRequest(substrate_op::kRegCreateFenced);
  req.u64(*token);
  req.str(path);
  req.str(data);
  req.u8(ephemeral ? 1 : 0);
  req.str(fencePath);
  req.u64(epoch);
  // Fenced/AlreadyExists rejections propagate from the authority before
  // any mirror change — the epoch check only means anything there.
  OwnedByteReader resp(call(req.take()));
  mutationFloor_ = std::max(mutationFloor_, resp.u64());
  try {
    Registry::create(path, data, session, ephemeral);
  } catch (const AlreadyExists&) {
    try {
      Registry::setData(path, data);
    } catch (const Error&) {
    }
  }
}

void RemoteRegistry::setDataFenced(const std::string& path,
                                   const std::string& data,
                                   const std::string& fencePath,
                                   std::uint64_t epoch) {
  std::lock_guard<std::recursive_mutex> sync(syncMu_);
  ByteWriter req = subRequest(substrate_op::kRegSetDataFenced);
  req.str(path);
  req.str(data);
  req.str(fencePath);
  req.u64(epoch);
  OwnedByteReader resp(call(req.take()));
  mutationFloor_ = std::max(mutationFloor_, resp.u64());
  try {
    Registry::setData(path, data);
  } catch (const NotFound&) {
    // Mirror lags; reconcile will create it.
  }
}

std::uint64_t RemoteRegistry::acquireLeadership(
    const std::string& leaderPath, const std::string& epochPath,
    const std::string& ownerTag, const cluster::SessionPtr& session) {
  const auto token = tokenFor(session);
  if (!token.has_value()) {
    throw Unavailable("remote registry: session has no authority token");
  }
  std::lock_guard<std::recursive_mutex> sync(syncMu_);
  ByteWriter req = subRequest(substrate_op::kRegAcquireLeader);
  req.u64(*token);
  req.str(leaderPath);
  req.str(epochPath);
  req.str(ownerTag);
  // AlreadyExists (a rival leads) propagates before any mirror change.
  OwnedByteReader resp(call(req.take()));
  const std::uint64_t epoch = resp.u64();
  mutationFloor_ = std::max(mutationFloor_, resp.u64());
  // Mirror-apply with the authority's epoch — NOT base acquireLeadership,
  // which would mint a divergent local epoch.
  const std::string tag = ownerTag + "#" + std::to_string(epoch);
  try {
    Registry::create(epochPath, std::to_string(epoch), session,
                     /*ephemeral=*/false);
  } catch (const AlreadyExists&) {
    try {
      Registry::setData(epochPath, std::to_string(epoch));
    } catch (const Error&) {
    }
  }
  try {
    Registry::create(leaderPath, tag, session, /*ephemeral=*/true);
  } catch (const AlreadyExists&) {
    try {
      Registry::setData(leaderPath, tag);
    } catch (const Error&) {
    }
  }
  return epoch;
}

void RemoteRegistry::expire(const cluster::SessionPtr& session) {
  const auto token = tokenFor(session);
  if (token.has_value()) {
    {
      MutexLock lock(mu_);
      sessions_.erase(session->id());
    }
    try {
      ByteWriter req = subRequest(substrate_op::kRegCloseSession);
      req.u64(*token);
      call(req.take());
    } catch (const Error& e) {
      // The authority's lease sweep will finish the job.
      DPSS_LOG(Debug) << "remote registry: close session failed: " << e.what();
    }
  }
  Registry::expire(session);
}

void RemoteRegistry::heartbeatNow() {
  std::vector<std::pair<std::uint64_t, SessionRef>> refs;
  {
    MutexLock lock(mu_);
    refs.assign(sessions_.begin(), sessions_.end());
  }
  for (auto& [localId, ref] : refs) {
    cluster::SessionPtr session = ref.session.lock();
    if (session == nullptr || session->expired()) {
      MutexLock lock(mu_);
      sessions_.erase(localId);
      continue;
    }
    ByteWriter req = subRequest(substrate_op::kRegHeartbeat);
    req.u64(ref.token);
    OwnedByteReader resp(call(req.take()));
    if (resp.u8() == 0) {
      // The authority no longer knows this session (lease timed out or
      // the coordinator restarted): this IS a ZK session expiry. Expire
      // locally so the node's re-registration logic kicks in.
      DPSS_LOG(Warn) << "remote registry: lease lost for '"
                     << session->owner() << "', expiring local session";
      {
        MutexLock lock(mu_);
        sessions_.erase(localId);
      }
      Registry::expire(session);
    }
  }
}

void RemoteRegistry::syncNow() {
  OwnedByteReader resp(call(subRequest(substrate_op::kRegSnapshot).take()));
  const std::uint64_t version = resp.u64();
  // Each entry is two strings (a length byte each) and a flag byte.
  const std::uint64_t n = resp.count(3);
  std::vector<RegistryEntry> entries;
  entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    RegistryEntry e;
    e.path = resp.str();
    e.data = resp.str();
    e.ephemeral = resp.u8() != 0;
    entries.push_back(std::move(e));
  }
  applySnapshot(version, std::move(entries));
}

void RemoteRegistry::applySnapshot(std::uint64_t version,
                                   std::vector<RegistryEntry> entries) {
  std::lock_guard<std::recursive_mutex> sync(syncMu_);
  if (version < mutationFloor_) return;  // stale: predates a local write

  cluster::SessionPtr mirror;
  {
    MutexLock lock(mu_);
    if (mirrorSession_ == nullptr) {
      // A base-class session: mirror entries are local bookkeeping, not
      // authority state, so connecting must not round-trip.
      mirrorSession_ = Registry::connect("remote-registry-mirror");
    }
    mirror = mirrorSession_;
  }

  std::map<std::string, const RegistryEntry*> want;
  for (const auto& e : entries) want[e.path] = &e;

  // Removals first, deepest path first so each remove() takes out at
  // most the node itself (its subtree, if any, is already gone).
  const auto mirrorEntries = dump();
  for (auto it = mirrorEntries.rbegin(); it != mirrorEntries.rend(); ++it) {
    if (want.count(it->path) == 0) Registry::remove(it->path);
  }

  // Creates / data updates, shallow first (map order is sorted).
  for (const auto& [path, e] : want) {
    const auto existing = getData(path);
    if (!existing.has_value()) {
      try {
        // Remote ephemerals become plain mirror entries: their lifetime
        // is governed by the authority (and future snapshots), not by
        // any local session.
        Registry::create(path, e->data, mirror, /*ephemeral=*/false);
      } catch (const AlreadyExists&) {
        // An implicit parent materialized by a deeper create; align data.
        if (!e->data.empty()) {
          try {
            Registry::setData(path, e->data);
          } catch (const Error&) {
          }
        }
      }
    } else if (*existing != e->data) {
      Registry::setData(path, e->data);
    }
  }
}

// --- RemoteMetaStore -----------------------------------------------------

RemoteMetaStore::RemoteMetaStore(cluster::TransportIface& transport,
                                 std::string substrateNode,
                                 cluster::RpcPolicy rpc)
    : transport_(transport),
      substrateNode_(std::move(substrateNode)),
      rpc_(rpc) {}

std::string RemoteMetaStore::call(const std::string& bytes) const {
  return cluster::callWithPolicy(transport_, substrateNode_, bytes, rpc_);
}

void RemoteMetaStore::upsertSegment(const SegmentRecord& record) {
  ByteWriter req = subRequest(substrate_op::kMetaUpsert);
  writeRecord(req, record);
  call(req.take());
}

void RemoteMetaStore::markUnused(const storage::SegmentId& id) {
  ByteWriter req = subRequest(substrate_op::kMetaMarkUnused);
  id.serialize(req);
  call(req.take());
}

std::optional<SegmentRecord> RemoteMetaStore::getSegment(
    const storage::SegmentId& id) const {
  ByteWriter req = subRequest(substrate_op::kMetaGet);
  id.serialize(req);
  OwnedByteReader resp(call(req.take()));
  if (resp.u8() == 0) return std::nullopt;
  return readRecord(resp);
}

std::vector<SegmentRecord> RemoteMetaStore::usedSegments() const {
  OwnedByteReader resp(call(subRequest(substrate_op::kMetaUsed).take()));
  return readRecords(resp);
}

std::vector<SegmentRecord> RemoteMetaStore::allSegments() const {
  OwnedByteReader resp(call(subRequest(substrate_op::kMetaAll).take()));
  return readRecords(resp);
}

void RemoteMetaStore::setRules(const std::string& dataSource,
                               LoadRules rules) {
  ByteWriter req = subRequest(substrate_op::kMetaSetRules);
  req.str(dataSource);
  writeRules(req, rules);
  call(req.take());
}

LoadRules RemoteMetaStore::rulesFor(const std::string& dataSource) const {
  ByteWriter req = subRequest(substrate_op::kMetaRulesFor);
  req.str(dataSource);
  OwnedByteReader resp(call(req.take()));
  return readRules(resp);
}

void RemoteMetaStore::setDefaultRules(LoadRules rules) {
  ByteWriter req = subRequest(substrate_op::kMetaSetDefaultRules);
  writeRules(req, rules);
  call(req.take());
}

void RemoteMetaStore::upsertSubscription(const SubscriptionRecord& record) {
  ByteWriter req = subRequest(substrate_op::kMetaSubUpsert);
  writeSubscription(req, record);
  call(req.take());
}

void RemoteMetaStore::removeSubscription(std::uint64_t id) {
  ByteWriter req = subRequest(substrate_op::kMetaSubRemove);
  req.varint(id);
  call(req.take());
}

std::vector<SubscriptionRecord> RemoteMetaStore::subscriptions() const {
  OwnedByteReader resp(call(subRequest(substrate_op::kMetaSubList).take()));
  return readSubscriptions(resp);
}

// --- RemoteDeepStorage ---------------------------------------------------

RemoteDeepStorage::RemoteDeepStorage(cluster::TransportIface& transport,
                                     std::string substrateNode,
                                     cluster::RpcPolicy rpc)
    : transport_(transport),
      substrateNode_(std::move(substrateNode)),
      rpc_(rpc) {}

std::string RemoteDeepStorage::call(const std::string& bytes) {
  return cluster::callWithPolicy(transport_, substrateNode_, bytes, rpc_);
}

void RemoteDeepStorage::put(const std::string& key, const std::string& bytes) {
  ByteWriter req = subRequest(substrate_op::kDsPut);
  req.str(key);
  req.str(bytes);
  call(req.take());
}

std::string RemoteDeepStorage::get(const std::string& key) {
  ByteWriter req = subRequest(substrate_op::kDsGet);
  req.str(key);
  OwnedByteReader resp(call(req.take()));
  return resp.str();
}

bool RemoteDeepStorage::exists(const std::string& key) {
  ByteWriter req = subRequest(substrate_op::kDsExists);
  req.str(key);
  OwnedByteReader resp(call(req.take()));
  return resp.u8() != 0;
}

void RemoteDeepStorage::remove(const std::string& key) {
  ByteWriter req = subRequest(substrate_op::kDsRemove);
  req.str(key);
  call(req.take());
}

std::vector<std::string> RemoteDeepStorage::list() {
  OwnedByteReader resp(call(subRequest(substrate_op::kDsList).take()));
  const std::uint64_t n = resp.count(1);  // a length byte per key
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(resp.str());
  return out;
}

std::optional<std::uint64_t> RemoteDeepStorage::storedChecksum(
    const std::string& key) {
  ByteWriter req = subRequest(substrate_op::kDsChecksum);
  req.str(key);
  OwnedByteReader resp(call(req.take()));
  if (resp.u8() == 0) return std::nullopt;
  return resp.u64();
}

bool RemoteDeepStorage::verify(const std::string& key) {
  ByteWriter req = subRequest(substrate_op::kDsVerify);
  req.str(key);
  OwnedByteReader resp(call(req.take()));
  return resp.u8() != 0;
}

}  // namespace dpss::net
