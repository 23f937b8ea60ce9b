// In-process query transport (§III-A: "the query is forwarded via HTTP").
//
// Every call crosses a serialization boundary — the request and response
// are encoded to bytes and decoded on the other side — so nothing is
// shared between nodes except what the real system would put on the wire
// (shared-nothing honesty). Latency and failure injection emulate the
// network.
//
// Failure injection comes in two flavours:
//  * hand-scripted faults (failNextCalls / setPartitioned), kept for
//    targeted tests, and
//  * a seeded ChaosPolicy: per-destination drop probability, added
//    latency jitter, duplicate delivery and timed partitions, every
//    decision a pure function of (seed, destination, per-destination
//    call sequence number). The same seed always yields the same
//    injected-failure schedule, so any chaos run is replayable.
//
// Tracing: call() serializes the caller's obs::TraceContext into the wire
// envelope (the analogue of HTTP trace headers) and installs it with
// obs::TraceScope around the handler, so spans recorded node-side parent
// onto the caller's span and one distributed query yields one span tree.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "query/query.h"
#include "query/result.h"
#include "storage/segment_id.h"

namespace dpss::cluster {

/// A node-side handler: receives the serialized request, returns the
/// serialized response. Throws to signal a node-side error.
using RpcHandler = std::function<std::string(const std::string& requestBytes)>;

/// Abstract call/bind surface every node speaks. Two implementations:
/// the in-process Transport below (virtual clock, chaos injection — the
/// deterministic test substrate) and net::NetTransport (src/net/), which
/// carries the same envelopes over real TCP sockets. Nodes, the RPC
/// policy layer and the stats collector only ever see this interface, so
/// the same node code runs single-process or as one OS process per node.
class TransportIface {
 public:
  virtual ~TransportIface() = default;

  /// Registers/replaces the handler serving `nodeName`.
  virtual void bind(const std::string& nodeName, RpcHandler handler) = 0;
  virtual void unbind(const std::string& nodeName) = 0;
  virtual bool reachable(const std::string& nodeName) const = 0;

  /// Sends request bytes to a node; throws Unavailable when the node is
  /// unbound, unreachable, or an injected/real network failure fires.
  virtual std::string call(const std::string& nodeName,
                           const std::string& request) = 0;

  /// The clock wire latency, deadlines and retry backoff run on.
  virtual Clock& clock() = 0;
};

// --- seeded chaos --------------------------------------------------------

namespace chaos {
/// Bits of ChaosDecision::actions / ChaosEvent::actions.
constexpr std::uint8_t kDrop = 1;       // request lost on the wire
constexpr std::uint8_t kDuplicate = 2;  // request delivered twice
constexpr std::uint8_t kPartition = 4;  // destination cut off for a while
}  // namespace chaos

struct ChaosOptions {
  std::uint64_t seed = 0;
  /// Probability a call's request is dropped (caller sees Unavailable).
  double dropProbability = 0.0;
  /// Probability a delivered request reaches the handler twice (the
  /// duplicate's response is discarded, as a network would discard a
  /// duplicate reply). Exercises handler idempotence.
  double duplicateProbability = 0.0;
  /// Uniform added one-way latency in [min, max] ms, applied to both wire
  /// legs via the transport's Clock (so ManualClock tests stay in
  /// control of time).
  TimeMs latencyJitterMinMs = 0;
  TimeMs latencyJitterMaxMs = 0;
  /// Probability a call opens a timed partition of its destination;
  /// while open, every call to it fails. Duration uniform in [min, max].
  double partitionProbability = 0.0;
  TimeMs partitionMinMs = 0;
  TimeMs partitionMaxMs = 0;
  /// Per-destination overrides of dropProbability.
  std::map<std::string, double> dropProbabilityByDest;
};

/// What the chaos layer decided for one call.
struct ChaosDecision {
  std::uint8_t actions = 0;  // chaos::k* bits
  TimeMs latencyMs = 0;      // added one-way latency
  TimeMs partitionMs = 0;    // partition duration when kPartition set
};

/// One recorded injection, for determinism checks and debugging.
struct ChaosEvent {
  std::string dest;
  std::uint64_t seq = 0;  // per-destination call sequence number
  std::uint8_t actions = 0;
  TimeMs latencyMs = 0;
  TimeMs partitionMs = 0;

  friend bool operator==(const ChaosEvent& a, const ChaosEvent& b) = default;
};

/// Deterministic fault schedule: decide() is a pure function of
/// (options.seed, destination, sequence number), independent of wall
/// time and thread interleaving.
class ChaosPolicy {
 public:
  ChaosPolicy() = default;  // inert
  explicit ChaosPolicy(ChaosOptions options);

  bool enabled() const { return enabled_; }
  ChaosDecision decide(const std::string& dest, std::uint64_t seq) const;

 private:
  ChaosOptions options_{};
  bool enabled_ = false;
};

class Transport final : public TransportIface {
 public:
  explicit Transport(Clock& clock) : clock_(clock) {}

  /// Registers/replaces the handler serving `nodeName`.
  void bind(const std::string& nodeName, RpcHandler handler) override;
  void unbind(const std::string& nodeName) override;
  bool reachable(const std::string& nodeName) const override;

  /// Sends request bytes to a node; throws Unavailable when the node is
  /// unbound, disconnected, or an injected failure fires.
  std::string call(const std::string& nodeName,
                   const std::string& request) override;

  /// The clock wire latency and retry backoff are measured against.
  Clock& clock() override { return clock_; }

  // --- network emulation ----------------------------------------------
  /// One-way artificial latency per call (applied twice: there and back).
  void setLatencyMs(TimeMs ms);
  /// The next `n` calls to `nodeName` throw Unavailable.
  void failNextCalls(const std::string& nodeName, std::size_t n);
  /// Drops a node off the network without unbinding it (partition).
  void setPartitioned(const std::string& nodeName, bool partitioned);

  /// Installs a seeded chaos schedule (resets sequence numbers, open
  /// chaos partitions and the event log).
  void setChaos(ChaosOptions options);
  void clearChaos();
  /// Every injection so far, in injection order (capped; see cc).
  std::vector<ChaosEvent> chaosEvents() const;

  std::uint64_t callCount() const;

 private:
  Clock& clock_;
  mutable Mutex mu_;
  std::map<std::string, RpcHandler> handlers_ DPSS_GUARDED_BY(mu_);
  std::map<std::string, std::size_t> failures_ DPSS_GUARDED_BY(mu_);
  std::map<std::string, bool> partitioned_ DPSS_GUARDED_BY(mu_);
  TimeMs latencyMs_ DPSS_GUARDED_BY(mu_) = 0;
  std::uint64_t calls_ DPSS_GUARDED_BY(mu_) = 0;

  ChaosPolicy chaos_ DPSS_GUARDED_BY(mu_);
  std::map<std::string, std::uint64_t> chaosSeq_ DPSS_GUARDED_BY(mu_);
  std::map<std::string, TimeMs> chaosPartitionUntil_ DPSS_GUARDED_BY(mu_);
  std::vector<ChaosEvent> chaosEvents_ DPSS_GUARDED_BY(mu_);
};

// --- wire protocol -------------------------------------------------------

namespace rpc {
/// First byte of every request selects the operation.
constexpr std::uint8_t kQuerySegment = 1;  // scan the listed segments
constexpr std::uint8_t kPssInfo = 2;       // describe a document slice
constexpr std::uint8_t kPssSearch = 3;     // run encrypted query on a slice
// 4 is retired; never reuse it (an older peer may still send it).
constexpr std::uint8_t kBrokerQuery = 5;   // broker: full distributed query
constexpr std::uint8_t kBrokerSearch = 6;  // broker: distributed PSS round
constexpr std::uint8_t kSubstrate = 7;     // registry/metastore/storage ops
constexpr std::uint8_t kControl = 8;       // dpss_node process control
constexpr std::uint8_t kSpans = 9;         // span shipping / trace fetch
constexpr std::uint8_t kSubscribe = 10;    // register/attach a subscription
constexpr std::uint8_t kUnsubscribe = 11;  // retire a subscription
constexpr std::uint8_t kSnapshot = 12;     // fetch sealed snapshots (acked)
}  // namespace rpc

/// One scatter request: every segment the broker routes to one node for
/// one query, with the spec once.
struct ScatterRequest {
  std::vector<storage::SegmentId> segments;
  query::QuerySpec spec;
};
/// Includes the rpc::kQuerySegment tag.
std::string encodeScatterRequest(
    const std::vector<storage::SegmentId>& segments,
    const query::QuerySpec& spec);
/// Decodes the bytes after the tag.
ScatterRequest decodeScatterRequest(std::string_view bytes);

/// A node's answer for one requested segment.
struct SegmentScan {
  /// False when the node does not serve the segment (the broker's view
  /// was stale); the broker then asks the segment's next replica.
  bool served = false;
  /// The node's own time for the scan, for the slow-query log.
  std::uint64_t scanNs = 0;
  /// The segment's serialized QueryResult; empty when not served.
  std::string partial;
};

/// The reply to a ScatterRequest: one SegmentScan per requested segment,
/// in request order.
std::string encodeScatterReply(const std::vector<SegmentScan>& scans);
/// Throws CorruptData unless the reply holds exactly `expected` scans.
std::vector<SegmentScan> decodeScatterReply(std::string_view bytes,
                                            std::size_t expected);

}  // namespace dpss::cluster
