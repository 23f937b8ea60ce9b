#include "query/query.h"

#include <cstdio>
#include <sstream>
#include <string>

#include "common/error.h"

namespace dpss::query {

namespace {
const char* aggName(AggType t) {
  switch (t) {
    case AggType::kCount: return "count";
    case AggType::kLongSum: return "longSum";
    case AggType::kDoubleSum: return "doubleSum";
    case AggType::kMin: return "min";
    case AggType::kMax: return "max";
    case AggType::kAvg: return "avg";
  }
  return "?";
}
}  // namespace

std::string QuerySpec::fingerprint() const {
  std::ostringstream os;
  os << dataSource << "|" << interval.toString() << "|"
     << (filter ? filter->describe() : "-") << "|";
  for (const auto& a : aggregations) {
    os << aggName(a.type) << "(" << a.metric << ")as" << a.outputName << ",";
  }
  os << "|gb:" << groupByDimension << "|ob:" << orderBy << "|lim:" << limit
     << "|gr:" << granularityMs;
  return os.str();
}

void QuerySpec::serialize(ByteWriter& w) const {
  w.str(dataSource);
  w.i64(interval.start());
  w.i64(interval.end());
  w.u8(filter ? 1 : 0);
  if (filter) filter->serialize(w);
  w.varint(aggregations.size());
  for (const auto& a : aggregations) {
    w.u8(static_cast<std::uint8_t>(a.type));
    w.str(a.outputName);
    w.str(a.metric);
  }
  w.str(groupByDimension);
  w.str(orderBy);
  w.varint(limit);
  w.i64(granularityMs);
}

QuerySpec QuerySpec::deserialize(ByteReader& r) {
  QuerySpec q;
  q.dataSource = r.str();
  const TimeMs start = r.i64();
  const TimeMs end = r.i64();
  q.interval = Interval(start, end);
  if (r.u8() != 0) q.filter = Filter::deserialize(r);
  // An aggregation is at least its type byte and two string lengths.
  const std::uint64_t n = r.count(3);
  q.aggregations.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    AggregatorSpec a;
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(AggType::kAvg)) {
      throw CorruptData("unknown aggregator type " + std::to_string(type));
    }
    a.type = static_cast<AggType>(type);
    a.outputName = r.str();
    a.metric = r.str();
    q.aggregations.push_back(std::move(a));
  }
  q.groupByDimension = r.str();
  q.orderBy = r.str();
  q.limit = r.varint();
  q.granularityMs = r.i64();
  return q;
}

std::string timeBucketKey(TimeMs bucketStart) {
  // Offset into the non-negative range so lexicographic order matches
  // numeric order even for pre-epoch timestamps.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%020lld",
                static_cast<long long>(bucketStart) + (1LL << 62));
  return buf;
}

TimeMs parseTimeBucketKey(const std::string& key) {
  DPSS_CHECK_MSG(key.size() == 21 && key[0] == 't',
                 "not a time bucket key: " + key);
  return static_cast<TimeMs>(std::stoll(key.substr(1)) - (1LL << 62));
}

namespace {
AggregatorSpec makeAgg(AggType type, std::string metric, std::string name,
                       const char* prefix) {
  AggregatorSpec a;
  a.type = type;
  a.metric = std::move(metric);
  a.outputName = name.empty() ? prefix + ("_" + a.metric) : std::move(name);
  return a;
}
}  // namespace

AggregatorSpec countAgg(std::string outputName) {
  AggregatorSpec a;
  a.type = AggType::kCount;
  a.outputName = std::move(outputName);
  return a;
}

AggregatorSpec longSumAgg(std::string metric, std::string outputName) {
  return makeAgg(AggType::kLongSum, std::move(metric), std::move(outputName),
                 "sum");
}

AggregatorSpec doubleSumAgg(std::string metric, std::string outputName) {
  return makeAgg(AggType::kDoubleSum, std::move(metric), std::move(outputName),
                 "sum");
}

AggregatorSpec minAgg(std::string metric, std::string outputName) {
  return makeAgg(AggType::kMin, std::move(metric), std::move(outputName),
                 "min");
}

AggregatorSpec maxAgg(std::string metric, std::string outputName) {
  return makeAgg(AggType::kMax, std::move(metric), std::move(outputName),
                 "max");
}

AggregatorSpec avgAgg(std::string metric, std::string outputName) {
  return makeAgg(AggType::kAvg, std::move(metric), std::move(outputName),
                 "avg");
}

QuerySpec tableTwoQuery(int queryNumber, std::string dataSource,
                        Interval interval) {
  DPSS_CHECK_MSG(queryNumber >= 1 && queryNumber <= 6,
                 "Table II defines queries 1..6");
  QuerySpec q;
  q.dataSource = std::move(dataSource);
  q.interval = interval;
  q.aggregations.push_back(countAgg("cnt"));
  // Q2/Q5 add one sum; Q3/Q6 add four sums (metric1..metric4 of the paper
  // map onto impressions/clicks/conversions as longs, revenue as double).
  const bool grouped = queryNumber >= 4;
  const int sums = (queryNumber == 2 || queryNumber == 5)   ? 1
                   : (queryNumber == 3 || queryNumber == 6) ? 4
                                                            : 0;
  static const char* kMetrics[] = {"impressions", "clicks", "revenue",
                                   "conversions"};
  for (int m = 0; m < sums; ++m) {
    if (std::string(kMetrics[m]) == "revenue") {
      q.aggregations.push_back(doubleSumAgg(kMetrics[m]));
    } else {
      q.aggregations.push_back(longSumAgg(kMetrics[m]));
    }
  }
  if (grouped) {
    q.groupByDimension = "high_card_dimension";
    q.orderBy = "cnt";
    q.limit = 100;
  }
  return q;
}

}  // namespace dpss::query
