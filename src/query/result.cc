#include "query/result.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/error.h"

namespace dpss::query {

namespace {

// Flag bits of one serialized PartialAgg: which fields follow.
constexpr std::uint8_t kHasSum = 1;
constexpr std::uint8_t kHasCount = 2;
constexpr std::uint8_t kHasMin = 4;
constexpr std::uint8_t kHasMax = 8;
constexpr std::uint8_t kAllFields = kHasSum | kHasCount | kHasMin | kHasMax;

/// Fields compare by bits, so -0.0 and every NaN payload survive.
bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void writePartial(ByteWriter& w, const PartialAgg& p) {
  static const PartialAgg kEmpty{};
  std::uint8_t flags = 0;
  if (!sameBits(p.sum, kEmpty.sum)) flags |= kHasSum;
  if (p.count != kEmpty.count) flags |= kHasCount;
  if (!sameBits(p.minValue, kEmpty.minValue)) flags |= kHasMin;
  if (!sameBits(p.maxValue, kEmpty.maxValue)) flags |= kHasMax;
  w.u8(flags);
  if (flags & kHasSum) w.f64(p.sum);
  if (flags & kHasCount) w.svarint(p.count);
  if (flags & kHasMin) w.f64(p.minValue);
  if (flags & kHasMax) w.f64(p.maxValue);
}

PartialAgg readPartial(ByteReader& r) {
  const std::uint8_t flags = r.u8();
  if (flags & ~kAllFields) {
    throw CorruptData("unknown partial aggregate flag bits: " +
                      std::to_string(flags));
  }
  PartialAgg p;
  if (flags & kHasSum) p.sum = r.f64();
  if (flags & kHasCount) p.count = r.svarint();
  if (flags & kHasMin) p.minValue = r.f64();
  if (flags & kHasMax) p.maxValue = r.f64();
  return p;
}

}  // namespace

void PartialAgg::mergeFrom(const PartialAgg& other) {
  sum += other.sum;
  // Two's-complement wrap rather than signed overflow: counts can come
  // off the wire, and a forged one must not be undefined behaviour.
  count = static_cast<std::int64_t>(static_cast<std::uint64_t>(count) +
                                    static_cast<std::uint64_t>(other.count));
  minValue = std::min(minValue, other.minValue);
  maxValue = std::max(maxValue, other.maxValue);
}

void QueryResult::mergeFrom(const QueryResult& other) {
  rowsScanned += other.rowsScanned;
  segmentsScanned += other.segmentsScanned;
  for (const auto& [group, partials] : other.groups) {
    auto [it, inserted] = groups.try_emplace(group, partials);
    if (!inserted) {
      DPSS_CHECK_MSG(it->second.size() == partials.size(),
                     "aggregator arity mismatch in merge");
      for (std::size_t i = 0; i < partials.size(); ++i) {
        it->second[i].mergeFrom(partials[i]);
      }
    }
  }
}

void QueryResult::serialize(ByteWriter& w) const {
  w.u64(rowsScanned);
  w.u64(segmentsScanned);
  w.varint(groups.size());
  for (const auto& [group, partials] : groups) {
    w.str(group);
    w.varint(partials.size());
    for (const auto& p : partials) writePartial(w, p);
  }
}

void QueryResult::mergeSerialized(ByteReader& r) {
  rowsScanned += r.u64();
  segmentsScanned += r.u64();
  // A group is at least a key length and an arity; a partial at least
  // its flags byte.
  const std::uint64_t n = r.count(2);
  std::string key;
  for (std::uint64_t g = 0; g < n; ++g) {
    key.assign(r.raw(r.varint()));
    const std::uint64_t arity = r.count(1);
    const auto it = groups.find(key);
    if (it == groups.end()) {
      std::vector<PartialAgg> partials;
      partials.reserve(arity);
      for (std::uint64_t i = 0; i < arity; ++i) {
        partials.push_back(readPartial(r));
      }
      groups.emplace(key, std::move(partials));
      continue;
    }
    if (it->second.size() != arity) {
      throw CorruptData("group '" + key + "' has " + std::to_string(arity) +
                        " aggregators, the merged result " +
                        std::to_string(it->second.size()));
    }
    for (auto& merged : it->second) merged.mergeFrom(readPartial(r));
  }
}

QueryResult QueryResult::deserialize(ByteReader& r) {
  QueryResult out;
  out.mergeSerialized(r);
  return out;
}

double partialFinalValue(const AggregatorSpec& spec, const PartialAgg& p) {
  switch (spec.type) {
    case AggType::kCount:
      return static_cast<double>(p.count);
    case AggType::kLongSum:
    case AggType::kDoubleSum:
      return p.sum;
    case AggType::kMin:
      return p.minValue;
    case AggType::kMax:
      return p.maxValue;
    case AggType::kAvg:
      return p.count == 0 ? 0.0 : p.sum / static_cast<double>(p.count);
  }
  throw InternalError("unknown aggregator type");
}

std::vector<ResultRow> finalizeResult(const QuerySpec& spec,
                                      const QueryResult& partial) {
  if (spec.groupByDimension.empty() && partial.groups.empty()) {
    // An ungrouped aggregate always yields one row, even over no data.
    ResultRow zero;
    zero.values.assign(spec.aggregations.size(), 0.0);
    return {zero};
  }
  std::size_t orderIdx = spec.aggregations.size();
  for (std::size_t i = 0; i < spec.aggregations.size(); ++i) {
    if (spec.aggregations[i].outputName == spec.orderBy) {
      orderIdx = i;
      break;
    }
  }
  const bool ordered = !spec.orderBy.empty();
  // Rank (order value, key, partials) handles; rows are built only for
  // the `limit` that survive.
  struct Ranked {
    double value;
    const std::string* group;
    const std::vector<PartialAgg>* partials;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(partial.groups.size());
  for (const auto& [group, partials] : partial.groups) {
    DPSS_CHECK_MSG(partials.size() == spec.aggregations.size(),
                   "aggregator arity mismatch in finalize");
    const double value =
        ordered && orderIdx < spec.aggregations.size()
            ? partialFinalValue(spec.aggregations[orderIdx], partials[orderIdx])
            : 0.0;
    ranked.push_back(Ranked{value, &group, &partials});
  }
  if (ordered) {
    DPSS_CHECK_MSG(orderIdx < spec.aggregations.size(),
                   "orderBy references unknown output: " + spec.orderBy);
  }
  const std::size_t keep =
      spec.limit > 0 ? std::min(spec.limit, ranked.size()) : ranked.size();
  // Descending by the order value, ties (and unordered queries) by key,
  // so the output order is deterministic.
  const auto before = [ordered](const Ranked& a, const Ranked& b) {
    if (ordered && a.value != b.value) return a.value > b.value;
    return *a.group < *b.group;
  };
  if (keep < ranked.size()) {
    std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                      before);
  } else {
    std::sort(ranked.begin(), ranked.end(), before);  // no heap for a full sort
  }
  std::vector<ResultRow> rows(keep);
  for (std::size_t r = 0; r < keep; ++r) {
    rows[r].group = *ranked[r].group;
    const auto& partials = *ranked[r].partials;
    rows[r].values.reserve(partials.size());
    for (std::size_t i = 0; i < partials.size(); ++i) {
      rows[r].values.push_back(
          partialFinalValue(spec.aggregations[i], partials[i]));
    }
  }
  return rows;
}

}  // namespace dpss::query
