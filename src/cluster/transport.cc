#include "cluster/transport.h"

#include "common/bytes.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpss::cluster {

namespace {

const obs::MetricId kChaosDrops = obs::internCounter("transport.chaos.drops");
const obs::MetricId kChaosDuplicates =
    obs::internCounter("transport.chaos.duplicates");
const obs::MetricId kChaosPartitions =
    obs::internCounter("transport.chaos.partitions");
const obs::MetricId kChaosPartitionRejects =
    obs::internCounter("transport.chaos.partition_rejects");

/// Event log cap: long soak runs keep injecting but stop recording.
constexpr std::size_t kMaxChaosEvents = 1 << 16;

}  // namespace

ChaosPolicy::ChaosPolicy(ChaosOptions options)
    : options_(std::move(options)), enabled_(true) {}

ChaosDecision ChaosPolicy::decide(const std::string& dest,
                                  std::uint64_t seq) const {
  // One RNG per (seed, dest, seq), drawn in a fixed order: the schedule
  // is a pure function of the seed, replayable regardless of timing.
  Rng rng(hashCombine(seededHash(options_.seed, dest), seq));
  ChaosDecision d;
  if (options_.latencyJitterMaxMs > options_.latencyJitterMinMs) {
    d.latencyMs = rng.between(options_.latencyJitterMinMs,
                              options_.latencyJitterMaxMs);
  } else {
    d.latencyMs = options_.latencyJitterMinMs;
  }
  if (rng.chance(options_.duplicateProbability)) d.actions |= chaos::kDuplicate;
  double dropP = options_.dropProbability;
  const auto it = options_.dropProbabilityByDest.find(dest);
  if (it != options_.dropProbabilityByDest.end()) dropP = it->second;
  if (rng.chance(dropP)) d.actions |= chaos::kDrop;
  if (rng.chance(options_.partitionProbability)) {
    d.actions |= chaos::kPartition;
    d.partitionMs =
        options_.partitionMaxMs > options_.partitionMinMs
            ? rng.between(options_.partitionMinMs, options_.partitionMaxMs)
            : options_.partitionMinMs;
  }
  return d;
}

void Transport::bind(const std::string& nodeName, RpcHandler handler) {
  MutexLock lock(mu_);
  handlers_[nodeName] = std::move(handler);
}

void Transport::unbind(const std::string& nodeName) {
  MutexLock lock(mu_);
  handlers_.erase(nodeName);
}

bool Transport::reachable(const std::string& nodeName) const {
  MutexLock lock(mu_);
  const auto it = partitioned_.find(nodeName);
  const bool cut = it != partitioned_.end() && it->second;
  return !cut && handlers_.count(nodeName) > 0;
}

std::string Transport::call(const std::string& nodeName,
                            const std::string& request) {
  RpcHandler handler;
  TimeMs latency = 0;
  bool drop = false;
  bool duplicate = false;
  {
    MutexLock lock(mu_);
    ++calls_;
    const auto failIt = failures_.find(nodeName);
    if (failIt != failures_.end() && failIt->second > 0) {
      --failIt->second;
      throw Unavailable("injected network failure to " + nodeName);
    }
    const auto partIt = partitioned_.find(nodeName);
    if (partIt != partitioned_.end() && partIt->second) {
      throw Unavailable("node partitioned away: " + nodeName);
    }
    if (chaos_.enabled()) {
      const TimeMs now = clock_.nowMs();
      const auto cutIt = chaosPartitionUntil_.find(nodeName);
      if (cutIt != chaosPartitionUntil_.end() && now < cutIt->second) {
        obs::currentRegistry().counter(kChaosPartitionRejects).inc();
        throw Unavailable("chaos partition active: " + nodeName);
      }
      const std::uint64_t seq = chaosSeq_[nodeName]++;
      const ChaosDecision d = chaos_.decide(nodeName, seq);
      if ((d.actions != 0 || d.latencyMs > 0) &&
          chaosEvents_.size() < kMaxChaosEvents) {
        chaosEvents_.push_back(
            {nodeName, seq, d.actions, d.latencyMs, d.partitionMs});
      }
      if (d.actions & chaos::kPartition) {
        chaosPartitionUntil_[nodeName] = now + d.partitionMs;
        obs::currentRegistry().counter(kChaosPartitions).inc();
        throw Unavailable("chaos partition opened: " + nodeName);
      }
      drop = (d.actions & chaos::kDrop) != 0;
      duplicate = (d.actions & chaos::kDuplicate) != 0;
      latency = d.latencyMs;
    }
    const auto it = handlers_.find(nodeName);
    if (it == handlers_.end()) {
      throw Unavailable("no route to node: " + nodeName);
    }
    handler = it->second;
    latency += latencyMs_;
  }
  if (latency > 0) clock_.sleepFor(latency);
  // A dropped request still spends its wire time before the caller can
  // conclude anything — the deadline tests depend on that ordering.
  if (drop) {
    obs::currentRegistry().counter(kChaosDrops).inc();
    throw Unavailable("chaos dropped rpc to " + nodeName);
  }
  // Trace propagation across the emulated wire: the caller's context is
  // serialized into an envelope (HTTP-trace-header analogue), decoded
  // node-side, and installed around the handler so server spans parent
  // onto the caller's span. Both ends live inside Transport, so handlers
  // and callers keep seeing raw request bytes.
  ByteWriter envelope;
  const obs::TraceContext ctx = obs::currentTraceContext();
  envelope.u8(ctx.active() ? 1 : 0);
  if (ctx.active()) ctx.serialize(envelope);
  envelope.raw(request);

  ByteReader r(envelope.data());
  obs::TraceContext remote;
  if (r.u8() == 1) remote = obs::TraceContext::deserialize(r);
  const std::string body(r.raw(r.remaining()));
  std::string response;
  {
    obs::TraceScope scope(remote);
    response = handler(body);
    if (duplicate) {
      // Duplicate delivery: the handler runs again on the same bytes and
      // its response is discarded. Handlers must be idempotent; whatever
      // the duplicate throws, the network already dropped its reply.
      obs::currentRegistry().counter(kChaosDuplicates).inc();
      try {
        (void)handler(body);
      } catch (...) {
      }
    }
  }
  if (latency > 0) clock_.sleepFor(latency);
  return response;
}

void Transport::setLatencyMs(TimeMs ms) {
  MutexLock lock(mu_);
  latencyMs_ = ms;
}

void Transport::failNextCalls(const std::string& nodeName, std::size_t n) {
  MutexLock lock(mu_);
  failures_[nodeName] = n;
}

void Transport::setPartitioned(const std::string& nodeName, bool partitioned) {
  MutexLock lock(mu_);
  partitioned_[nodeName] = partitioned;
}

void Transport::setChaos(ChaosOptions options) {
  MutexLock lock(mu_);
  chaos_ = ChaosPolicy(std::move(options));
  chaosSeq_.clear();
  chaosPartitionUntil_.clear();
  chaosEvents_.clear();
}

void Transport::clearChaos() {
  MutexLock lock(mu_);
  chaos_ = ChaosPolicy();
  chaosSeq_.clear();
  chaosPartitionUntil_.clear();
}

std::vector<ChaosEvent> Transport::chaosEvents() const {
  MutexLock lock(mu_);
  return chaosEvents_;
}

std::uint64_t Transport::callCount() const {
  MutexLock lock(mu_);
  return calls_;
}

std::string encodeScatterRequest(
    const std::vector<storage::SegmentId>& segments,
    const query::QuerySpec& spec) {
  ByteWriter w;
  w.u8(rpc::kQuerySegment);
  w.varint(segments.size());
  for (const auto& id : segments) id.serialize(w);
  spec.serialize(w);
  return w.take();
}

ScatterRequest decodeScatterRequest(std::string_view bytes) {
  ByteReader r(bytes);
  ScatterRequest req;
  const std::uint64_t n = r.count(storage::SegmentId::kMinWireBytes);
  req.segments.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    req.segments.push_back(storage::SegmentId::deserialize(r));
  }
  req.spec = query::QuerySpec::deserialize(r);
  if (!r.done()) throw CorruptData("trailing bytes after scatter request");
  return req;
}

std::string encodeScatterReply(const std::vector<SegmentScan>& scans) {
  ByteWriter w;
  w.varint(scans.size());
  for (const auto& scan : scans) {
    w.u8(scan.served ? 1 : 0);
    w.varint(scan.scanNs);
    if (scan.served) w.str(scan.partial);
  }
  return w.take();
}

std::vector<SegmentScan> decodeScatterReply(std::string_view bytes,
                                            std::size_t expected) {
  ByteReader r(bytes);
  // Every scan costs at least its flag byte and a one-byte scan time.
  const std::uint64_t n = r.count(2);
  if (n != expected) {
    throw CorruptData("scatter reply holds " + std::to_string(n) +
                      " scans for " + std::to_string(expected) + " segments");
  }
  std::vector<SegmentScan> scans(n);
  for (auto& scan : scans) {
    const std::uint8_t served = r.u8();
    if (served > 1) throw CorruptData("bad served flag in scatter reply");
    scan.served = served == 1;
    scan.scanNs = r.varint();
    if (scan.served) scan.partial = r.str();
  }
  if (!r.done()) throw CorruptData("trailing bytes after scatter reply");
  return scans;
}

}  // namespace dpss::cluster
