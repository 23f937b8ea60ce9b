// Partial and final query results.
//
// Compute nodes return mergeable partials; the broker merges them (§III-A:
// "the broker node receives the results and merges them") and finalizes:
// avg = sum/count, then ORDER BY ... LIMIT for topN queries.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "query/query.h"

namespace dpss::query {

/// Mergeable accumulator for one aggregator in one group.
struct PartialAgg {
  double sum = 0;
  std::int64_t count = 0;
  double minValue = std::numeric_limits<double>::infinity();
  double maxValue = -std::numeric_limits<double>::infinity();

  void mergeFrom(const PartialAgg& other);
};

/// Partial result of one segment scan (or a merge of several).
struct QueryResult {
  /// group key -> per-aggregator partials (aligned with spec.aggregations).
  std::unordered_map<std::string, std::vector<PartialAgg>> groups;
  /// Rows examined — the scan-rate numerator of Figures 5/6.
  std::uint64_t rowsScanned = 0;
  /// Segments that contributed (bench bookkeeping).
  std::uint64_t segmentsScanned = 0;

  void mergeFrom(const QueryResult& other);

  /// Wire form: row/segment counters, then per group its key, arity and
  /// one compact partial per aggregator — a flags byte naming the fields
  /// whose bits differ from PartialAgg{}, then only those fields (count
  /// as an svarint). Bit-exact, and decodable without the spec.
  void serialize(ByteWriter& w) const;
  /// Decodes one serialized result straight into this one: adds into the
  /// groups already present and emplaces only new ones, exactly as
  /// `mergeFrom(deserialize(r))` would. Forged counts, unknown flag bits
  /// and an arity that disagrees with a merged group are CorruptData.
  void mergeSerialized(ByteReader& r);
  static QueryResult deserialize(ByteReader& r);
};

/// One finalized output row.
struct ResultRow {
  std::string group;                 // empty for ungrouped queries
  std::vector<double> values;        // aligned with spec.aggregations

  friend bool operator==(const ResultRow& a, const ResultRow& b) = default;
};

/// Applies avg finalization, ORDER BY (descending, the Table II topN
/// shape) and LIMIT.
std::vector<ResultRow> finalizeResult(const QuerySpec& spec,
                                      const QueryResult& partial);

/// Finalized value of one aggregator (avg = sum/count etc.). Used for
/// node-side topN truncation as well as final result assembly.
double partialFinalValue(const AggregatorSpec& spec, const PartialAgg& p);

}  // namespace dpss::query
