#include "query/engine.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/error.h"
#include "obs/metrics.h"

namespace dpss::query {

namespace {

const obs::MetricId kScanCount = obs::internCounter("query.scan.count");
const obs::MetricId kScanNs = obs::internHistogram("query.scan.ns");
const obs::MetricId kScanRows = obs::internCounter("query.scan.rows");
const obs::MetricId kFilterNs = obs::internHistogram("query.filter.ns");

}  // namespace

using storage::MetricType;
using storage::Segment;

namespace {

/// Resolved per-aggregator input: which metric column (if any) feeds it.
struct BoundAgg {
  AggType type;
  const Segment::MetricColumn* column = nullptr;  // null for kCount

  double rowValue(std::size_t row) const {
    if (column == nullptr) return 0;
    return column->type == MetricType::kLong
               ? static_cast<double>(column->longs[row])
               : column->doubles[row];
  }
};

void accumulate(const BoundAgg& agg, std::size_t row, PartialAgg& out) {
  switch (agg.type) {
    case AggType::kCount:
      ++out.count;
      return;
    case AggType::kLongSum:
    case AggType::kDoubleSum: {
      out.sum += agg.rowValue(row);
      ++out.count;
      return;
    }
    case AggType::kMin: {
      out.minValue = std::min(out.minValue, agg.rowValue(row));
      ++out.count;
      return;
    }
    case AggType::kMax: {
      out.maxValue = std::max(out.maxValue, agg.rowValue(row));
      ++out.count;
      return;
    }
    case AggType::kAvg: {
      out.sum += agg.rowValue(row);
      ++out.count;
      return;
    }
  }
}

/// One group present in a grouped scan: its dictionary id and its
/// aggregation accumulators (aggCount slots in the scan's flat buffer).
struct GroupRef {
  std::uint32_t id;
  const PartialAgg* partials;
};

/// Node-side topN truncation: for ORDER BY ... LIMIT queries a compute
/// node only ships its local top groups (with generous overfetch), the
/// standard Druid-style approximation that keeps the broker merge O(limit)
/// instead of O(distinct groups) — without it, grouped queries stop
/// scaling with nodes (the merge becomes the Amdahl term). Overfetch of
/// 4x the limit makes disagreement between local and global top sets
/// rare in practice; exact results are available by running with
/// limit = 0 and limiting client-side.
///
/// The cut runs on the per-id accumulators before any group key exists,
/// so only the groups that ship become strings and map entries. Every
/// group whose order value is at or above the (keep+1)-th largest stays:
/// ties at the cutoff all ship. An orderBy naming no aggregation cuts
/// nothing, and finalizeResult rejects it.
void keepTopN(const QuerySpec& spec, std::vector<GroupRef>& groups) {
  if (spec.limit == 0 || spec.orderBy.empty()) return;
  const std::size_t keep = spec.limit * 4;
  if (groups.size() <= keep) return;
  std::size_t orderIdx = spec.aggregations.size();
  for (std::size_t i = 0; i < spec.aggregations.size(); ++i) {
    if (spec.aggregations[i].outputName == spec.orderBy) {
      orderIdx = i;
      break;
    }
  }
  if (orderIdx == spec.aggregations.size()) return;  // finalize will throw

  const AggregatorSpec& order = spec.aggregations[orderIdx];
  std::vector<double> values;
  values.reserve(groups.size());
  for (const GroupRef& g : groups) {
    values.push_back(partialFinalValue(order, g.partials[orderIdx]));
  }
  std::vector<double> ranked = values;
  std::nth_element(ranked.begin(),
                   ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                   ranked.end(), std::greater<>());
  const double cutoff = ranked[keep];
  std::size_t kept = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (!(values[i] < cutoff)) groups[kept++] = groups[i];
  }
  groups.resize(kept);
}

}  // namespace

QueryResult scanSegment(const Segment& segment, const QuerySpec& spec) {
  obs::MetricsRegistry& reg = obs::currentRegistry();
  reg.counter(kScanCount).inc();
  obs::ScopedTimer scanTimer(reg.histogram(kScanNs));

  QueryResult result;
  result.segmentsScanned = 1;

  // Timestamp range -> contiguous row range (rows are time-sorted).
  const auto& ts = segment.timestamps();
  const auto loIt =
      std::lower_bound(ts.begin(), ts.end(), spec.interval.start());
  const auto hiIt = std::lower_bound(ts.begin(), ts.end(), spec.interval.end());
  const std::size_t lo = static_cast<std::size_t>(loIt - ts.begin());
  const std::size_t hi = static_cast<std::size_t>(hiIt - ts.begin());
  if (lo >= hi) return result;

  // Bind aggregators to metric columns once.
  std::vector<BoundAgg> bound;
  bound.reserve(spec.aggregations.size());
  for (const auto& a : spec.aggregations) {
    BoundAgg b;
    b.type = a.type;
    if (a.type != AggType::kCount) {
      b.column = &segment.metric(segment.schema().metricIndex(a.metric));
    }
    bound.push_back(b);
  }

  const Segment::DimColumn* groupDim = nullptr;
  if (!spec.groupByDimension.empty()) {
    if (spec.granularityMs > 0) {
      throw InvalidArgument(
          "granularity and dimension group-by cannot be combined");
    }
    groupDim =
        &segment.dim(segment.schema().dimensionIndex(spec.groupByDimension));
  }

  // Timeseries bucketing: dense per-bucket accumulators over the scanned
  // time range (rows are time-sorted, so the range is tight).
  const TimeMs g = spec.granularityMs;
  auto bucketStartOf = [g](TimeMs t) {
    TimeMs b = t - (t % g);
    if (t < 0 && t % g != 0) b -= g;
    return b;
  };
  TimeMs bucketBase = 0;
  std::vector<PartialAgg> bucketStore;
  std::vector<bool> bucketTouched;
  if (g > 0) {
    bucketBase = bucketStartOf(ts[lo]);
    const std::size_t buckets = static_cast<std::size_t>(
        (bucketStartOf(ts[hi - 1]) - bucketBase) / g) + 1;
    bucketStore.assign(buckets * spec.aggregations.size(), PartialAgg{});
    bucketTouched.assign(buckets, false);
  }

  // Group accumulators. Grouped scans accumulate per dictionary id in one
  // flat buffer (aggCount slots per group) and translate ids to strings
  // once at the end: dense indexing when the dictionary is comparable to
  // the row range, id->offset hashing when a high-cardinality dictionary
  // dwarfs the rows actually present.
  const std::size_t aggs = bound.size();
  std::vector<PartialAgg> global(aggs);
  const bool dense =
      groupDim != nullptr && groupDim->dict.size() <= 2 * (hi - lo) + 1024;
  std::vector<PartialAgg> denseStore;
  std::vector<bool> touched;
  std::unordered_map<std::uint32_t, std::size_t> sparseIdx;
  std::vector<PartialAgg> sparseStore;
  if (groupDim != nullptr) {
    if (dense) {
      denseStore.assign(groupDim->dict.size() * aggs, PartialAgg{});
      touched.assign(groupDim->dict.size(), false);
    } else {
      sparseIdx.reserve(hi - lo);
    }
  }

  auto scanRow = [&](std::size_t row) {
    PartialAgg* target = global.data();
    if (g > 0) {
      const auto idx = static_cast<std::size_t>(
          (bucketStartOf(ts[row]) - bucketBase) / g);
      target = bucketStore.data() + idx * aggs;
      bucketTouched[idx] = true;
    } else if (groupDim != nullptr) {
      const auto id = groupDim->ids[row];
      if (dense) {
        target = denseStore.data() + static_cast<std::size_t>(id) * aggs;
        touched[id] = true;
      } else {
        auto [it, inserted] = sparseIdx.try_emplace(id, sparseStore.size());
        if (inserted) sparseStore.resize(sparseStore.size() + aggs);
        target = sparseStore.data() + it->second;
      }
    }
    for (std::size_t i = 0; i < aggs; ++i) {
      accumulate(bound[i], row, target[i]);
    }
    ++result.rowsScanned;
  };

  if (spec.filter != nullptr) {
    const std::uint64_t filterStart = obs::nowNanos();
    const auto bitmap = spec.filter->evaluate(segment);
    reg.histogram(kFilterNs).observe(obs::nowNanos() - filterStart);
    bitmap.forEach([&](std::size_t row) {
      if (row >= hi) return false;  // ascending iteration: past the range
      if (row >= lo) scanRow(row);
      return true;
    });
  } else {
    for (std::size_t row = lo; row < hi; ++row) scanRow(row);
  }

  if (g > 0) {
    for (std::size_t b = 0; b < bucketTouched.size(); ++b) {
      if (!bucketTouched[b]) continue;
      const PartialAgg* base = bucketStore.data() + b * aggs;
      result.groups.emplace(
          timeBucketKey(bucketBase + static_cast<TimeMs>(b) * g),
          std::vector<PartialAgg>(base, base + aggs));
    }
  } else if (groupDim != nullptr) {
    std::vector<GroupRef> present;
    if (dense) {
      for (std::uint32_t id = 0; id < touched.size(); ++id) {
        if (touched[id]) {
          present.push_back(
              {id, denseStore.data() + static_cast<std::size_t>(id) * aggs});
        }
      }
    } else {
      present.reserve(sparseIdx.size());
      for (const auto& [id, offset] : sparseIdx) {
        present.push_back({id, sparseStore.data() + offset});
      }
    }
    keepTopN(spec, present);
    result.groups.reserve(present.size());
    for (const GroupRef& g : present) {
      result.groups.emplace(groupDim->dict.valueOf(g.id),
                            std::vector<PartialAgg>(g.partials,
                                                    g.partials + aggs));
    }
  } else {
    // Ungrouped queries always produce one row, even over no data.
    result.groups.emplace("", std::move(global));
  }
  reg.counter(kScanRows).inc(result.rowsScanned);
  return result;
}

}  // namespace dpss::query
