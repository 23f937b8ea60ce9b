#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/error.h"
#include "common/logging.h"

namespace dpss::obs {

namespace {

struct Descriptor {
  MetricKind kind;
  std::string name;
  Labels labels;
};

struct InternTable {
  Mutex mu;
  std::map<std::string, MetricId> byKey DPSS_GUARDED_BY(mu);
  std::vector<Descriptor> descriptors DPSS_GUARDED_BY(mu);
};

InternTable& internTable() {
  static InternTable* table = new InternTable();  // leaked: outlives statics
  return *table;
}

std::string internKey(MetricKind kind, const std::string& name,
                      const Labels& labels) {
  std::string key;
  key.push_back(static_cast<char>('0' + static_cast<int>(kind)));
  key += name;
  for (const auto& [k, v] : labels) {
    key.push_back('\x01');
    key += k;
    key.push_back('\x02');
    key += v;
  }
  return key;
}

MetricId intern(MetricKind kind, std::string name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  InternTable& table = internTable();
  MutexLock lock(table.mu);
  const std::string key = internKey(kind, name, labels);
  const auto it = table.byKey.find(key);
  if (it != table.byKey.end()) return it->second;
  DPSS_CHECK_MSG(table.descriptors.size() < MetricsRegistry::kMaxMetrics,
                 "metric intern table full; raise kMaxMetrics");
  const MetricId id = static_cast<MetricId>(table.descriptors.size());
  table.descriptors.push_back(Descriptor{kind, std::move(name), std::move(labels)});
  table.byKey.emplace(key, id);
  return id;
}

Descriptor descriptorOf(MetricId id) {
  InternTable& table = internTable();
  MutexLock lock(table.mu);
  return table.descriptors.at(id);
}

std::size_t internCount() {
  InternTable& table = internTable();
  MutexLock lock(table.mu);
  return table.descriptors.size();
}

thread_local MetricsRegistry* t_registry = nullptr;

// boundedLabelValue state: per (metric, labelKey) set of admitted values.
// Process-wide like the intern table, and leaked for the same reason.
struct LabelBoundTable {
  Mutex mu;
  std::map<std::string, std::set<std::string>> admitted DPSS_GUARDED_BY(mu);
};

LabelBoundTable& labelBoundTable() {
  static LabelBoundTable* table = new LabelBoundTable();
  return *table;
}

}  // namespace

MetricId internCounter(std::string name, Labels labels) {
  return intern(MetricKind::kCounter, std::move(name), std::move(labels));
}
MetricId internGauge(std::string name, Labels labels) {
  return intern(MetricKind::kGauge, std::move(name), std::move(labels));
}
MetricId internHistogram(std::string name, Labels labels) {
  return intern(MetricKind::kHistogram, std::move(name), std::move(labels));
}

std::string boundedLabelValue(const std::string& metricName,
                              const std::string& labelKey, std::string value,
                              std::size_t cap) {
  LabelBoundTable& table = labelBoundTable();
  MutexLock lock(table.mu);
  std::set<std::string>& admitted = table.admitted[metricName + '\x01' + labelKey];
  if (admitted.count(value) != 0) return value;
  if (admitted.size() >= cap) return "other";
  admitted.insert(value);
  return value;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t next = seen + buckets[i];
    if (static_cast<double>(next) >= rank) {
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(1ULL << (i - 1));
      const double upper = static_cast<double>(Histogram::bucketUpper(i)) + 1.0;
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[i]);
      return lower + (upper - lower) * frac;
    }
    seen = next;
  }
  return static_cast<double>(Histogram::bucketUpper(buckets.size() - 1));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

const MetricSample* MetricsSnapshot::find(std::string_view name) const {
  for (const auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counterValue(std::string_view name) const {
  const auto* s = find(name);
  return s != nullptr && s->kind == MetricKind::kCounter ? s->counterValue : 0;
}

std::uint64_t MetricsSnapshot::histogramCount(std::string_view name) const {
  const auto* s = find(name);
  return s != nullptr && s->kind == MetricKind::kHistogram ? s->histogram.count
                                                           : 0;
}

struct MetricsRegistry::Cell {
  MetricKind kind;
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

MetricsRegistry::MetricsRegistry(std::string nodeName)
    : node_(std::move(nodeName)) {}

MetricsRegistry::~MetricsRegistry() {
  // If this registry is still installed somewhere we cannot fix that here,
  // but the common case — destroyed on the thread that scoped it — is
  // already safe because ScopedRegistry restored the previous pointer.
}

MetricsRegistry::Cell& MetricsRegistry::cell(MetricId id, MetricKind kind) {
  DPSS_CHECK_MSG(id < kMaxMetrics, "metric id out of range");
  Cell* c = cells_[id].load(std::memory_order_acquire);
  if (c == nullptr) {
    MutexLock lock(mu_);
    c = cells_[id].load(std::memory_order_relaxed);
    if (c == nullptr) {
      auto fresh = std::make_unique<Cell>();
      fresh->kind = kind;
      c = fresh.get();
      owned_.push_back(std::move(fresh));
      cells_[id].store(c, std::memory_order_release);
    }
  }
  return *c;
}

Counter& MetricsRegistry::counter(MetricId id) {
  return cell(id, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(MetricId id) {
  return cell(id, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(MetricId id) {
  return cell(id, MetricKind::kHistogram).histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.node = node_;
  const std::size_t n = std::min<std::size_t>(internCount(), kMaxMetrics);
  for (MetricId id = 0; id < n; ++id) {
    const Cell* c = cells_[id].load(std::memory_order_acquire);
    if (c == nullptr) continue;  // never touched in this registry
    const Descriptor d = descriptorOf(id);
    MetricSample s;
    s.kind = d.kind;
    s.name = d.name;
    s.labels = d.labels;
    switch (d.kind) {
      case MetricKind::kCounter:
        s.counterValue = c->counter.value();
        break;
      case MetricKind::kGauge:
        s.gaugeValue = c->gauge.value();
        break;
      case MetricKind::kHistogram:
        s.histogram = c->histogram.snapshot();
        break;
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

MetricsRegistry& globalRegistry() {
  static MetricsRegistry* reg = new MetricsRegistry("");  // leaked on purpose
  return *reg;
}

MetricsRegistry& currentRegistry() {
  return t_registry != nullptr ? *t_registry : globalRegistry();
}

ScopedRegistry::ScopedRegistry(MetricsRegistry& r) : prev_(t_registry) {
  t_registry = &r;
  setLogNodeName(r.nodeName());
}

ScopedRegistry::~ScopedRegistry() {
  t_registry = prev_;
  setLogNodeName(prev_ != nullptr ? prev_->nodeName() : std::string());
}

// --- exposition ----------------------------------------------------------

namespace {

std::string sanitizeMetricName(std::string_view name) {
  std::string out = "dpss_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string labelBlock(const MetricsSnapshot& snap, const MetricSample& s,
                       const std::string& extraKey = "",
                       const std::string& extraValue = "") {
  std::vector<std::pair<std::string, std::string>> labels;
  if (!snap.node.empty()) labels.emplace_back("node", snap.node);
  for (const auto& l : s.labels) labels.push_back(l);
  if (!extraKey.empty()) labels.emplace_back(extraKey, extraValue);
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"";
    for (const char c : labels[i].second) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    out += "\"";
  }
  out += "}";
  return out;
}

const char* kindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

namespace {

void renderSampleText(const MetricsSnapshot& snap, const MetricSample& s,
                      std::set<std::string>& typed, std::string& out) {
  char buf[64];
  const std::string name = sanitizeMetricName(s.name);
  if (typed.insert(name).second) {
    out += "# TYPE " + name + " " + kindName(s.kind) + "\n";
  }
  switch (s.kind) {
    case MetricKind::kCounter:
      std::snprintf(buf, sizeof(buf), " %llu\n",
                    static_cast<unsigned long long>(s.counterValue));
      out += name + labelBlock(snap, s) + buf;
      break;
    case MetricKind::kGauge:
      std::snprintf(buf, sizeof(buf), " %lld\n",
                    static_cast<long long>(s.gaugeValue));
      out += name + labelBlock(snap, s) + buf;
      break;
    case MetricKind::kHistogram: {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < s.histogram.buckets.size(); ++i) {
        if (s.histogram.buckets[i] == 0) continue;
        cumulative += s.histogram.buckets[i];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(Histogram::bucketUpper(i)));
        out += name + "_bucket" + labelBlock(snap, s, "le", buf);
        std::snprintf(buf, sizeof(buf), " %llu\n",
                      static_cast<unsigned long long>(cumulative));
        out += buf;
      }
      out += name + "_bucket" + labelBlock(snap, s, "le", "+Inf");
      std::snprintf(buf, sizeof(buf), " %llu\n",
                    static_cast<unsigned long long>(s.histogram.count));
      out += buf;
      std::snprintf(buf, sizeof(buf), " %llu\n",
                    static_cast<unsigned long long>(s.histogram.sum));
      out += name + "_sum" + labelBlock(snap, s) + buf;
      std::snprintf(buf, sizeof(buf), " %llu\n",
                    static_cast<unsigned long long>(s.histogram.count));
      out += name + "_count" + labelBlock(snap, s) + buf;
      break;
    }
  }
}

}  // namespace

std::string renderText(const MetricsSnapshot& snapshot) {
  return renderTextMulti({snapshot});
}

std::string renderTextMulti(const std::vector<MetricsSnapshot>& snapshots) {
  std::string out;
  std::set<std::string> typed;  // one # TYPE per sanitized name
  for (const auto& snap : snapshots) {
    for (const auto& s : snap.samples) renderSampleText(snap, s, typed, out);
  }
  return out;
}

std::string renderJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"node\":\"" + jsonEscape(snapshot.node) +
                    "\",\"metrics\":[";
  char buf[64];
  bool first = true;
  for (const auto& s : snapshot.samples) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + jsonEscape(s.name) + "\",\"kind\":\"" +
           kindName(s.kind) + "\"";
    if (!s.labels.empty()) {
      out += ",\"labels\":{";
      for (std::size_t i = 0; i < s.labels.size(); ++i) {
        if (i > 0) out += ",";
        // Sequential appends: `"..." + jsonEscape(...) + ...` trips
        // GCC 12's spurious -Wrestrict (PR 105651) under -Werror.
        out += '"';
        out += jsonEscape(s.labels[i].first);
        out += "\":\"";
        out += jsonEscape(s.labels[i].second);
        out += '"';
      }
      out += "}";
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof(buf), ",\"value\":%llu}",
                      static_cast<unsigned long long>(s.counterValue));
        out += buf;
        break;
      case MetricKind::kGauge:
        std::snprintf(buf, sizeof(buf), ",\"value\":%lld}",
                      static_cast<long long>(s.gaugeValue));
        out += buf;
        break;
      case MetricKind::kHistogram:
        std::snprintf(buf, sizeof(buf), ",\"count\":%llu,\"sum\":%llu",
                      static_cast<unsigned long long>(s.histogram.count),
                      static_cast<unsigned long long>(s.histogram.sum));
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"p50\":%.1f,\"p95\":%.1f",
                      s.histogram.quantile(0.5), s.histogram.quantile(0.95));
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"p99\":%.1f}",
                      s.histogram.quantile(0.99));
        out += buf;
        break;
    }
  }
  out += "]}";
  return out;
}

std::string renderJsonMulti(const std::vector<MetricsSnapshot>& snapshots) {
  std::string out = "{\"nodes\":[";
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (i > 0) out += ",";
    out += renderJson(snapshots[i]);
  }
  out += "]}";
  return out;
}

}  // namespace dpss::obs
