// Span-based query tracing (§III-C steps 1–4 / §III-A scatter-merge).
//
// One distributed query carries one trace id from the broker through the
// transport onto every historical / realtime node it fans out to; each
// hop records spans (scatter, per-segment scan, merge, cache probe) into
// its own node's SpanStore. Worker processes ship their spans to the
// coordinator (rpc::kSpans, cluster/span_ship.h), which reassembles the
// span tree by parent ids; in-process tests read the stores directly.
//
// Propagation is thread-local: SpanGuard pushes itself as the current
// context, Transport::call serializes the current context into the wire
// envelope, and the receiving side installs it with TraceScope before the
// handler runs — so crossing the (emulated) network is explicit, exactly
// like trace headers on real HTTP hops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/thread_annotations.h"

namespace dpss::obs {

/// The per-thread trace position: which trace we are in and which span is
/// the innermost parent. traceId == 0 means "not tracing".
struct TraceContext {
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;

  bool active() const { return traceId != 0; }

  void serialize(ByteWriter& w) const;
  static TraceContext deserialize(ByteReader& r);
};

/// One finished span.
struct Span {
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
  std::uint64_t parentId = 0;  // 0 = root
  std::string name;
  std::string node;  // registry owner that recorded it
  std::uint64_t startNs = 0;
  std::uint64_t durationNs = 0;
  std::vector<std::pair<std::string, std::string>> tags;

  /// Smallest encoding: five u64s, two empty strings, no tags.
  static constexpr std::size_t kMinWireBytes = 5 * 8 + 3;

  void serialize(ByteWriter& w) const;
  static Span deserialize(ByteReader& r);
};

/// Bounded collector of finished spans (per MetricsRegistry). Drops the
/// oldest spans past the cap so long-running processes stay bounded.
class SpanStore {
 public:
  explicit SpanStore(std::size_t capacity = 8192) : capacity_(capacity) {}

  void record(Span span);
  std::vector<Span> forTrace(std::uint64_t traceId) const;
  std::vector<Span> all() const;
  std::size_t size() const;
  void clear();

  /// Incremental drain for span shipping: returns every span recorded at
  /// or after *cursor (a monotone per-store sequence number; start from
  /// 0), oldest first, and advances *cursor past them. Spans the cap
  /// already evicted are skipped silently — shipping is lossy-but-bounded
  /// by design, and droppedBatches() tells the operator it happened.
  std::vector<Span> collectSince(std::uint64_t* cursor) const;

  /// Times the cap dropped the oldest half of the buffer.
  std::size_t droppedBatches() const;

 private:
  mutable Mutex mu_;
  std::size_t capacity_;  // set once in the constructor
  std::vector<Span> spans_ DPSS_GUARDED_BY(mu_);
  std::size_t dropped_ DPSS_GUARDED_BY(mu_) = 0;
  // Sequence number of the next span record() will append; spans_[i] has
  // sequence nextSeq_ - spans_.size() + i.
  std::uint64_t nextSeq_ DPSS_GUARDED_BY(mu_) = 0;
};

/// Steady-clock nanoseconds (the time base of every span and histogram).
std::uint64_t nowNanos();

/// Fresh process-unique ids (counter mixed through splitmix64, so ids are
/// well distributed but runs stay deterministic for tests).
std::uint64_t newTraceId();

TraceContext currentTraceContext();

/// Installs a received context as this thread's current one (no span is
/// created — the transport's server side uses this so handler spans
/// parent onto the caller's span).
class TraceScope {
 public:
  explicit TraceScope(TraceContext ctx);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext prev_;
};

/// RAII span: on construction becomes the current context (starting a new
/// trace if none is active); on destruction records itself into the
/// current MetricsRegistry's SpanStore and restores the parent context.
class SpanGuard {
 public:
  explicit SpanGuard(std::string name);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  void tag(std::string key, std::string value);
  std::uint64_t traceId() const { return span_.traceId; }
  std::uint64_t spanId() const { return span_.spanId; }

 private:
  Span span_;
  TraceContext prev_;
};

}  // namespace dpss::obs
