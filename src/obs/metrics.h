// Cluster observability: lock-cheap metrics registry (§IV is entirely
// about where time goes — scan rate, per-core throughput, Paillier fold
// cost — so the instrumentation layer is first-class infrastructure).
//
// Design:
//  * Metric identities (kind + name + labels) are interned process-wide
//    into dense MetricIds at static-init time. Interning takes a mutex;
//    it happens once per call site.
//  * A MetricsRegistry is a fixed-size array of lazily created cells
//    indexed by MetricId. The hot path — Counter::inc, Histogram::observe
//    — is one relaxed atomic op after an atomic pointer load. No locks,
//    no string hashing.
//  * Every node (broker / historical / realtime) owns its own registry;
//    low-level code (Paillier, segment scan, bitmap intersection) records
//    into the *current* registry, a thread-local installed by
//    ScopedRegistry around each RPC handler and pool task. Code running
//    outside any node scope falls back to the process-global registry —
//    which is what single-process benches read.
//  * Histograms are log2-bucketed (bucket i counts values with
//    bit_width == i), giving ~2x-relative-error quantiles over the full
//    ns..minutes range in 64 fixed slots.
//
// Exposition: snapshot() produces a MetricsSnapshot, which
// renderText()/renderJson() emit as Prometheus text / JSON for benches,
// tests and the admin plane (net/admin_plane.h).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace dpss::obs {

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// Label set attached to a metric identity ("name+labels"), e.g.
/// {{"op", "encrypt"}}. Kept sorted by key at intern time.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Dense process-wide metric identity. Intern once (function-local
/// static at the call site), then index registries with it forever.
using MetricId = std::uint32_t;

MetricId internCounter(std::string name, Labels labels = {});
MetricId internGauge(std::string name, Labels labels = {});
MetricId internHistogram(std::string name, Labels labels = {});

/// Bounds the cardinality of a dynamic label value. The first `cap`
/// distinct values ever seen for (metricName, labelKey) pass through
/// unchanged; every later value collapses to "other". Required whenever
/// an intern* label value is not a string literal (segment ids, peer
/// names, data sources, ...): the intern table is capped at kMaxMetrics
/// and DPSS_CHECK-aborts on overflow, so an unbounded label value is a
/// process-killing leak, not just an exposition nuisance. Enforced by
/// the dpss-lint "metric-label" rule.
std::string boundedLabelValue(const std::string& metricName,
                              const std::string& labelKey, std::string value,
                              std::size_t cap = 16);

/// Monotonic counter. All ops relaxed: totals are exact because every
/// increment lands; ordering against other metrics is irrelevant.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, 64> buckets{};  // buckets[i]: bit_width(v) == i

  /// Quantile estimate (q in [0,1]) with linear interpolation inside the
  /// containing log2 bucket; exact to ~2x relative error.
  double quantile(double q) const;
  double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count); }
};

/// Log2-bucketed histogram for nonnegative values (typically nanoseconds).
class Histogram {
 public:
  void observe(std::uint64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  HistogramSnapshot snapshot() const;

  static std::size_t bucketOf(std::uint64_t v) {
    return v == 0 ? 0 : static_cast<std::size_t>(64 - __builtin_clzll(v));
  }
  /// Inclusive upper bound of bucket i: 2^i - 1 (v in [2^(i-1), 2^i)).
  static std::uint64_t bucketUpper(std::size_t i) {
    return i >= 64 ? ~0ULL : (1ULL << i) - 1;
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, 64> buckets_{};
};

/// One exported sample: the identity plus the kind-specific payload.
struct MetricSample {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  Labels labels;
  std::uint64_t counterValue = 0;
  std::int64_t gaugeValue = 0;
  HistogramSnapshot histogram;
};

/// Point-in-time export of one registry, self-describing.
struct MetricsSnapshot {
  std::string node;  // registry owner ("" for the process-global one)
  std::vector<MetricSample> samples;

  /// First sample with this name (any labels), or nullptr.
  const MetricSample* find(std::string_view name) const;
  /// Counter value by name, 0 when absent.
  std::uint64_t counterValue(std::string_view name) const;
  /// Histogram observation count by name, 0 when absent.
  std::uint64_t histogramCount(std::string_view name) const;
};

/// Per-node metric + span store. See file comment for the threading model.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::string nodeName = "");
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  Counter& counter(MetricId id);
  Gauge& gauge(MetricId id);
  Histogram& histogram(MetricId id);

  SpanStore& spans() { return spans_; }
  QueryLog& queryLog() { return queryLog_; }
  const std::string& nodeName() const { return node_; }
  /// Names the registry after the fact — for the process-global registry,
  /// whose owner (main) only learns the node name from flags. Call before
  /// any other thread can snapshot(); the name is unsynchronized.
  void setNodeName(std::string name) { node_ = std::move(name); }

  /// Every cell ever touched in this registry, in MetricId order.
  MetricsSnapshot snapshot() const;

  static constexpr std::size_t kMaxMetrics = 512;

 private:
  struct Cell;
  Cell& cell(MetricId id, MetricKind kind);

  std::string node_;
  std::array<std::atomic<Cell*>, kMaxMetrics> cells_{};
  Mutex mu_;  // guards cell creation only; reads go through the atomics
  std::vector<std::unique_ptr<Cell>> owned_ DPSS_GUARDED_BY(mu_);
  SpanStore spans_;
  QueryLog queryLog_;
};

/// Process-global fallback registry (benches, client-side code).
MetricsRegistry& globalRegistry();

/// The registry instrumentation records into on this thread: the
/// innermost ScopedRegistry, else the global one.
MetricsRegistry& currentRegistry();

/// Installs `r` as the current registry for this thread (RAII, nestable).
/// Also routes the node name into the logger prefix (common/logging.h) so
/// multi-node logs attribute lines to the node whose code is running.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(MetricsRegistry& r);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  MetricsRegistry* prev_;
};

/// Observes the elapsed steady-clock nanoseconds into a histogram on
/// destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) : h_(h), start_(nowNanos()) {}
  ~ScopedTimer() { h_.observe(nowNanos() - start_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& h_;
  std::uint64_t start_;
};

// --- exposition ----------------------------------------------------------

/// Prometheus text exposition (histograms expand to
/// _bucket{le=...}/_sum/_count; one # TYPE line per metric name). Names
/// are sanitized to the Prometheus charset and prefixed "dpss_"; the
/// registry's node name becomes a node="..." label.
std::string renderText(const MetricsSnapshot& snapshot);

/// Prometheus text over several registries at once (the admin server
/// serves the node registry merged with the process-global one, since
/// net.server.* lands in the global registry while rpc.* lands in the
/// node's). Samples sharing a name render under a single # TYPE line and
/// stay distinguishable by their node label.
std::string renderTextMulti(const std::vector<MetricsSnapshot>& snapshots);

/// Compact JSON: {"node":...,"metrics":[{name, kind, value|histogram}]}.
std::string renderJson(const MetricsSnapshot& snapshot);

/// JSON over several registries: {"nodes":[<renderJson>, ...]}.
std::string renderJsonMulti(const std::vector<MetricsSnapshot>& snapshots);

}  // namespace dpss::obs
