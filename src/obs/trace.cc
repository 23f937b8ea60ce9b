#include "obs/trace.h"

#include <unistd.h>

#include <chrono>

#include "common/logging.h"
#include "obs/metrics.h"

namespace dpss::obs {

namespace {

thread_local TraceContext t_current;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t nextId() {
  // Span ids must be unique across every *process* in a cluster — the
  // trace sink stitches parent links by id, and a collision silently
  // re-parents another node's span. Start the counter from per-process
  // entropy so no two processes walk the same splitmix64 sequence.
  static std::atomic<std::uint64_t> counter{
      splitmix64(static_cast<std::uint64_t>(::getpid()) ^ nowNanos())};
  std::uint64_t id = 0;
  // splitmix64 is a bijection over nonzero seeds here, but guard anyway:
  // a zero id would read as "not tracing".
  while (id == 0) {
    id = splitmix64(counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

}  // namespace

void TraceContext::serialize(ByteWriter& w) const {
  w.u64(traceId);
  w.u64(spanId);
}

TraceContext TraceContext::deserialize(ByteReader& r) {
  TraceContext ctx;
  ctx.traceId = r.u64();
  ctx.spanId = r.u64();
  return ctx;
}

void Span::serialize(ByteWriter& w) const {
  w.u64(traceId);
  w.u64(spanId);
  w.u64(parentId);
  w.str(name);
  w.str(node);
  w.u64(startNs);
  w.u64(durationNs);
  w.varint(tags.size());
  for (const auto& [k, v] : tags) {
    w.str(k);
    w.str(v);
  }
}

Span Span::deserialize(ByteReader& r) {
  Span s;
  s.traceId = r.u64();
  s.spanId = r.u64();
  s.parentId = r.u64();
  s.name = r.str();
  s.node = r.str();
  s.startNs = r.u64();
  s.durationNs = r.u64();
  const std::uint64_t n = r.count(2);  // two empty strings at least
  s.tags.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string k = r.str();
    std::string v = r.str();
    s.tags.emplace_back(std::move(k), std::move(v));
  }
  return s;
}

void SpanStore::record(Span span) {
  MutexLock lock(mu_);
  if (spans_.size() >= capacity_) {
    // Keep the newest half; bulk drop amortizes the erase.
    spans_.erase(spans_.begin(),
                 spans_.begin() + static_cast<std::ptrdiff_t>(spans_.size() / 2));
    ++dropped_;
  }
  spans_.push_back(std::move(span));
  ++nextSeq_;
}

std::vector<Span> SpanStore::collectSince(std::uint64_t* cursor) const {
  MutexLock lock(mu_);
  const std::uint64_t firstSeq = nextSeq_ - spans_.size();
  std::uint64_t from = *cursor;
  if (from < firstSeq) from = firstSeq;  // the cap evicted the gap
  std::vector<Span> out;
  if (from < nextSeq_) {
    out.assign(spans_.begin() + static_cast<std::ptrdiff_t>(from - firstSeq),
               spans_.end());
  }
  *cursor = nextSeq_;
  return out;
}

std::size_t SpanStore::droppedBatches() const {
  MutexLock lock(mu_);
  return dropped_;
}

std::vector<Span> SpanStore::forTrace(std::uint64_t traceId) const {
  MutexLock lock(mu_);
  std::vector<Span> out;
  for (const auto& s : spans_) {
    if (s.traceId == traceId) out.push_back(s);
  }
  return out;
}

std::vector<Span> SpanStore::all() const {
  MutexLock lock(mu_);
  return spans_;
}

std::size_t SpanStore::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

void SpanStore::clear() {
  MutexLock lock(mu_);
  spans_.clear();
}

std::uint64_t nowNanos() {
  // dpss-lint: allow(wall-clock) spans and histograms measure real elapsed
  // time by design; nothing schedules or branches on this value.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t newTraceId() { return nextId(); }

TraceContext currentTraceContext() { return t_current; }

TraceScope::TraceScope(TraceContext ctx) : prev_(t_current) {
  t_current = ctx;
  setLogTraceId(ctx.traceId);
}

TraceScope::~TraceScope() {
  t_current = prev_;
  setLogTraceId(prev_.traceId);
}

SpanGuard::SpanGuard(std::string name) : prev_(t_current) {
  span_.name = std::move(name);
  span_.traceId = prev_.active() ? prev_.traceId : newTraceId();
  span_.spanId = nextId();
  span_.parentId = prev_.spanId;
  span_.startNs = nowNanos();
  t_current = TraceContext{span_.traceId, span_.spanId};
  setLogTraceId(span_.traceId);
}

SpanGuard::~SpanGuard() {
  span_.durationNs = nowNanos() - span_.startNs;
  MetricsRegistry& reg = currentRegistry();
  span_.node = reg.nodeName();
  reg.spans().record(std::move(span_));
  t_current = prev_;
  setLogTraceId(prev_.traceId);
}

void SpanGuard::tag(std::string key, std::string value) {
  span_.tags.emplace_back(std::move(key), std::move(value));
}

}  // namespace dpss::obs
