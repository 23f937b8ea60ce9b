// Client-side RPC call policy: bounded retries with exponential backoff
// and a per-call deadline, both measured against the transport's virtual
// Clock so tests drive every schedule deterministically.
//
// The in-process transport makes a retry essentially free, so the default
// policy retries immediately (zero backoff) — real deployments raise
// initialBackoffMs. A deadline of 0 means "no deadline". Deadline expiry
// throws the typed DeadlineExceeded (a subclass of Unavailable, so
// replica-failover paths keep working unchanged).
//
// Every attempt/retry/deadline event is counted into the *current*
// obs::MetricsRegistry — on the broker's scatter threads that is the
// broker's registry, so the counters show up on the admin plane and in
// Cluster::collectStats() like any other node metric.
#pragma once

#include <cstddef>
#include <string>

#include "cluster/transport.h"
#include "common/clock.h"

namespace dpss::cluster {

struct RpcPolicy {
  /// Total tries per call (first attempt included). >= 1.
  std::size_t maxAttempts = 3;
  /// Backoff before the first retry; 0 disables backoff sleeping.
  TimeMs initialBackoffMs = 0;
  /// Growth factor between consecutive backoffs.
  double backoffMultiplier = 2.0;
  /// Upper bound on any single backoff (0 = uncapped).
  TimeMs maxBackoffMs = 1000;
  /// Per-call time budget across all attempts and backoffs (0 = none).
  TimeMs deadlineMs = 0;
};

/// Backoff before retry number `retryIndex` (0-based): initial *
/// multiplier^retryIndex, capped at maxBackoffMs. Pure function.
TimeMs backoffDelayMs(const RpcPolicy& policy, std::size_t retryIndex);

/// Metric names recorded by callWithPolicy (all counters).
namespace rpcmetrics {
inline constexpr const char* kAttempts = "rpc.attempts";
inline constexpr const char* kRetries = "rpc.retries";
inline constexpr const char* kRetryExhausted = "rpc.retry_exhausted";
inline constexpr const char* kDeadlineExceeded = "rpc.deadline_exceeded";
}  // namespace rpcmetrics

/// Issues `request` to `nodeName`, retrying Unavailable failures per the
/// policy. Backoff sleeps and the deadline run on the transport's clock.
/// Throws DeadlineExceeded when the budget elapses, otherwise rethrows
/// the last attempt's error once attempts are exhausted. Non-Unavailable
/// errors (NotFound, CorruptData, ...) are never retried: the node
/// answered, it just didn't like the request.
std::string callWithPolicy(TransportIface& transport, const std::string& nodeName,
                           const std::string& request,
                           const RpcPolicy& policy = {});

}  // namespace dpss::cluster
