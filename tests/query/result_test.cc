// The broker's side of a query: the compact partial codec, the merge
// straight from bytes and finalize, each checked against the simplest
// algorithm that defines it. The codec round-trips every PartialAgg
// bit-exactly; mergeSerialized equals deserialize + mergeFrom (and the
// in-memory scan -> mergeFrom reference); finalizeResult equals building
// a row per group, sorting them all and truncating.
#include "query/result.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "query/engine.h"
#include "storage/adtech.h"

namespace dpss::query {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field-by-field bit equality: EXPECT_EQ on doubles cannot tell -0.0
/// from 0.0, nor one NaN from another.
void expectBitEqual(const QueryResult& got, const QueryResult& want,
                    const std::string& label) {
  EXPECT_EQ(got.rowsScanned, want.rowsScanned) << label;
  EXPECT_EQ(got.segmentsScanned, want.segmentsScanned) << label;
  ASSERT_EQ(got.groups.size(), want.groups.size()) << label;
  for (const auto& [key, partials] : want.groups) {
    const auto it = got.groups.find(key);
    ASSERT_NE(it, got.groups.end()) << label << " lost group " << key;
    ASSERT_EQ(it->second.size(), partials.size()) << label << " " << key;
    for (std::size_t i = 0; i < partials.size(); ++i) {
      const PartialAgg& g = it->second[i];
      const PartialAgg& w = partials[i];
      EXPECT_EQ(bits(g.sum), bits(w.sum)) << label << " " << key;
      EXPECT_EQ(g.count, w.count) << label << " " << key;
      EXPECT_EQ(bits(g.minValue), bits(w.minValue)) << label << " " << key;
      EXPECT_EQ(bits(g.maxValue), bits(w.maxValue)) << label << " " << key;
    }
  }
}

std::string encode(const QueryResult& result) {
  ByteWriter w;
  result.serialize(w);
  return w.take();
}

QueryResult decode(const std::string& bytes) {
  ByteReader r(bytes);
  return QueryResult::deserialize(r);
}

// --- compact codec ------------------------------------------------------

double randomDouble(Rng& rng) {
  static const double kSpecial[] = {
      0.0,
      -0.0,
      1.0,
      -2.5,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0x7ff8'0000'0000'1234}),  // payload
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
  };
  if (rng.chance(0.5)) return kSpecial[rng.below(std::size(kSpecial))];
  return (rng.uniform01() - 0.5) * 1e9;
}

std::int64_t randomCount(Rng& rng) {
  switch (rng.below(5)) {
    case 0:
      return -rng.between(1, 1'000'000);
    case 1:  // above 2^32
      return (std::int64_t{1} << 32) + rng.between(0, 1 << 20);
    case 2:
      return rng.chance(0.5) ? std::numeric_limits<std::int64_t>::min()
                             : std::numeric_limits<std::int64_t>::max();
    default:
      return rng.between(0, 100'000);
  }
}

/// Each field keeps PartialAgg{}'s value with probability 1/3, so every
/// flag combination shows up.
PartialAgg randomPartial(Rng& rng) {
  PartialAgg p;
  if (!rng.chance(1.0 / 3)) p.sum = randomDouble(rng);
  if (!rng.chance(1.0 / 3)) p.count = randomCount(rng);
  if (!rng.chance(1.0 / 3)) p.minValue = randomDouble(rng);
  if (!rng.chance(1.0 / 3)) p.maxValue = randomDouble(rng);
  return p;
}

TEST(ResultCodec, RoundTripsRandomPartialsBitExactly) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    QueryResult result;
    result.rowsScanned = rng.next();
    result.segmentsScanned = rng.below(1000);
    const std::size_t groups = rng.below(300);
    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<PartialAgg> partials(rng.below(7));
      for (auto& p : partials) p = randomPartial(rng);
      result.groups.emplace("g" + std::to_string(rng.next()),
                            std::move(partials));
    }
    expectBitEqual(decode(encode(result)), result,
                   "seed " + std::to_string(seed));
  }
}

TEST(ResultCodec, WritesOnlyFieldsThatDifferFromTheEmptyAccumulator) {
  const auto partialBytes = [](const PartialAgg& p) {
    QueryResult r;
    r.groups.emplace("", std::vector<PartialAgg>{p});
    QueryResult empty;
    empty.groups.emplace("", std::vector<PartialAgg>{});
    return encode(r).size() - encode(empty).size();
  };
  EXPECT_EQ(partialBytes(PartialAgg{}), 1u);  // the flags byte alone
  PartialAgg count;
  count.count = 5;
  EXPECT_EQ(partialBytes(count), 2u);  // flags + one-byte svarint
  PartialAgg negZero;
  negZero.sum = -0.0;  // bits differ from 0.0: must travel
  EXPECT_EQ(partialBytes(negZero), 9u);
  PartialAgg full;
  full.sum = 1;
  full.count = 1;
  full.minValue = 1;
  full.maxValue = 1;
  EXPECT_EQ(partialBytes(full), 1u + 8 + 1 + 8 + 8);
}

// --- merge from bytes ---------------------------------------------------

TEST(ResultMerge, MergeSerializedEqualsDeserializeThenMergeFrom) {
  const Interval all(0, 4'000'000'000'000LL);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    storage::AdTechConfig config;
    config.seed = seed;
    config.rowsPerSegment = 1'500;
    const auto segments = storage::generateAdTechSegments(config, "ads", 4);
    std::vector<std::vector<std::size_t>> orders(3);
    orders[0].resize(segments.size());
    std::iota(orders[0].begin(), orders[0].end(), 0);
    orders[1].assign(orders[0].rbegin(), orders[0].rend());
    orders[2] = orders[0];
    Rng rng(seed);
    rng.shuffle(orders[2]);
    for (int qn = 1; qn <= 6; ++qn) {
      const QuerySpec spec = tableTwoQuery(qn, "ads", all);
      std::vector<QueryResult> scans;
      std::vector<std::string> wire;
      for (const auto& seg : segments) {
        scans.push_back(scanSegment(*seg, spec));
        wire.push_back(encode(scans.back()));
      }
      for (std::size_t o = 0; o < orders.size(); ++o) {
        const std::string label = "seed " + std::to_string(seed) + " Q" +
                                  std::to_string(qn) + " order " +
                                  std::to_string(o);
        QueryResult viaDecode;
        QueryResult inMemory;
        QueryResult fromBytes;
        for (const std::size_t i : orders[o]) {
          viaDecode.mergeFrom(decode(wire[i]));
          inMemory.mergeFrom(scans[i]);
          ByteReader r(wire[i]);
          fromBytes.mergeSerialized(r);
          EXPECT_TRUE(r.done()) << label;
        }
        expectBitEqual(fromBytes, viaDecode, label);
        expectBitEqual(fromBytes, inMemory, label);
        EXPECT_EQ(finalizeResult(spec, fromBytes),
                  finalizeResult(spec, inMemory))
            << label;
      }
    }
  }
}

// --- finalize -----------------------------------------------------------

/// finalizeResult as first written: a row for every group, one full sort,
/// then truncation to the limit.
std::vector<ResultRow> finalizeByFullSort(const QuerySpec& spec,
                                          const QueryResult& partial) {
  std::vector<ResultRow> rows;
  if (spec.groupByDimension.empty() && partial.groups.empty()) {
    ResultRow zero;
    zero.values.assign(spec.aggregations.size(), 0.0);
    return {zero};
  }
  for (const auto& [group, partials] : partial.groups) {
    DPSS_CHECK_MSG(partials.size() == spec.aggregations.size(),
                   "aggregator arity mismatch in finalize");
    ResultRow row;
    row.group = group;
    for (std::size_t i = 0; i < partials.size(); ++i) {
      row.values.push_back(
          partialFinalValue(spec.aggregations[i], partials[i]));
    }
    rows.push_back(std::move(row));
  }
  if (spec.orderBy.empty()) {
    std::sort(rows.begin(), rows.end(),
              [](const ResultRow& a, const ResultRow& b) {
                return a.group < b.group;
              });
  } else {
    std::size_t orderIdx = spec.aggregations.size();
    for (std::size_t i = 0; i < spec.aggregations.size(); ++i) {
      if (spec.aggregations[i].outputName == spec.orderBy) {
        orderIdx = i;
        break;
      }
    }
    DPSS_CHECK_MSG(orderIdx < spec.aggregations.size(),
                   "orderBy references unknown output: " + spec.orderBy);
    std::sort(rows.begin(), rows.end(),
              [orderIdx](const ResultRow& a, const ResultRow& b) {
                if (a.values[orderIdx] != b.values[orderIdx]) {
                  return a.values[orderIdx] > b.values[orderIdx];
                }
                return a.group < b.group;
              });
  }
  if (spec.limit > 0 && rows.size() > spec.limit) rows.resize(spec.limit);
  return rows;
}

/// The text after the check location: the two algorithms live in
/// different files, so only the message itself can match.
std::string checkMessage(const std::string& what) {
  const auto pos = what.find(" — ");
  return pos == std::string::npos ? what : what.substr(pos);
}

/// Finalizes with both algorithms; rows, or the error text, must match.
void expectSameFinalize(const QuerySpec& spec, const QueryResult& partial,
                        const std::string& label) {
  std::string wantError;
  std::vector<ResultRow> want;
  try {
    want = finalizeByFullSort(spec, partial);
  } catch (const InternalError& e) {
    wantError = checkMessage(e.what());
  }
  std::string gotError;
  std::vector<ResultRow> got;
  try {
    got = finalizeResult(spec, partial);
  } catch (const InternalError& e) {
    gotError = checkMessage(e.what());
  }
  EXPECT_EQ(gotError, wantError) << label;
  EXPECT_EQ(got, want) << label;
}

/// Groups whose counts and sums come from a handful of values, so long
/// runs of ties straddle any cut position.
QueryResult tiedGroups(Rng& rng, std::size_t groups) {
  QueryResult result;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<PartialAgg> partials(3);
    partials[0].count = rng.between(0, 4);
    partials[1].sum = static_cast<double>(rng.between(-2, 2));
    partials[2].sum = static_cast<double>(rng.between(0, 3));
    partials[2].count = rng.between(0, 2);
    result.groups.emplace("k" + std::to_string(rng.below(100'000)),
                          std::move(partials));
  }
  return result;
}

TEST(ResultFinalize, EqualsFullSortOverLimitsTiesAndOrders) {
  QuerySpec spec;
  spec.groupByDimension = "dim";
  spec.aggregations = {countAgg("cnt"), doubleSumAgg("m", "total"),
                       avgAgg("m", "mean")};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    for (const std::size_t groups : {0, 1, 7, 150, 450}) {
      const QueryResult partial = tiedGroups(rng, groups);
      for (const std::size_t limit :
           {std::size_t{0}, std::size_t{1}, std::size_t{100}, groups + 5}) {
        for (const char* orderBy : {"", "cnt", "total", "mean", "nope"}) {
          spec.limit = limit;
          spec.orderBy = orderBy;
          expectSameFinalize(spec, partial,
                             "seed " + std::to_string(seed) + " groups " +
                                 std::to_string(groups) + " limit " +
                                 std::to_string(limit) + " orderBy '" +
                                 orderBy + "'");
        }
      }
    }
  }
}

TEST(ResultFinalize, TiesAtTheLimitBreakByKey) {
  QuerySpec spec;
  spec.groupByDimension = "dim";
  spec.aggregations = {countAgg("cnt")};
  spec.orderBy = "cnt";
  spec.limit = 3;
  QueryResult partial;
  for (const char* key : {"e", "a", "d", "b", "c"}) {
    partial.groups[key] = {PartialAgg{}};
    partial.groups[key][0].count = 2;
  }
  partial.groups["z"] = {PartialAgg{}};
  partial.groups["z"][0].count = 9;
  const auto rows = finalizeResult(spec, partial);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].group, "z");
  EXPECT_EQ(rows[1].group, "a");
  EXPECT_EQ(rows[2].group, "b");
  expectSameFinalize(spec, partial, "ties");
}

TEST(ResultFinalize, ErrorsMatchTheFullSort) {
  QuerySpec spec;
  spec.groupByDimension = "dim";
  spec.aggregations = {countAgg("cnt")};
  spec.orderBy = "missing";
  spec.limit = 10;
  QueryResult partial;
  partial.groups["a"] = {PartialAgg{}};
  expectSameFinalize(spec, partial, "unknown orderBy");
  EXPECT_THROW(finalizeResult(spec, partial), InternalError);
  // No groups at all still names the unknown output.
  expectSameFinalize(spec, QueryResult{}, "unknown orderBy, no groups");
  // An ungrouped query over nothing yields its zero row first.
  QuerySpec ungrouped = spec;
  ungrouped.groupByDimension.clear();
  expectSameFinalize(ungrouped, QueryResult{}, "ungrouped zero row");
  // Arity is checked before the orderBy name.
  partial.groups["b"] = {PartialAgg{}, PartialAgg{}};
  expectSameFinalize(spec, partial, "arity mismatch");
}

// --- forged input -------------------------------------------------------

/// Header of a serialized result: rowsScanned, segmentsScanned, groups.
ByteWriter forgedHeader(std::uint64_t groups) {
  ByteWriter w;
  w.u64(10);
  w.u64(1);
  w.varint(groups);
  return w;
}

TEST(ResultForged, HugeGroupCountIsCorruptData) {
  ByteWriter w = forgedHeader(std::uint64_t{1} << 40);
  w.str("g");
  w.varint(0);
  EXPECT_THROW(decode(w.data()), CorruptData);
}

TEST(ResultForged, HugeArityIsCorruptData) {
  ByteWriter w = forgedHeader(1);
  w.str("g");
  w.varint(std::uint64_t{1} << 60);
  w.u8(0);
  EXPECT_THROW(decode(w.data()), CorruptData);
}

TEST(ResultForged, UnknownFlagBitsAreCorruptData) {
  ByteWriter w = forgedHeader(1);
  w.str("g");
  w.varint(1);
  w.u8(0x10);
  EXPECT_THROW(decode(w.data()), CorruptData);
}

TEST(ResultForged, ArityDisagreeingWithTheMergedGroupIsCorruptData) {
  QueryResult merged;
  merged.groups["g"] = {PartialAgg{}, PartialAgg{}};
  ByteWriter w = forgedHeader(1);
  w.str("g");
  w.varint(1);
  w.u8(0);
  ByteReader r(w.data());
  EXPECT_THROW(merged.mergeSerialized(r), CorruptData);
}

TEST(ResultForged, OverflowingCountsWrapInsteadOfOverflowing) {
  QueryResult merged;
  PartialAgg big;
  big.count = std::numeric_limits<std::int64_t>::max();
  merged.groups["g"] = {big};
  OwnedByteReader r(encode(merged));
  merged.mergeSerialized(r);  // UBSan would flag a signed overflow here
  EXPECT_EQ(merged.groups["g"][0].count, -2);
}

TEST(ResultForged, EveryTruncationIsCorruptData) {
  Rng rng(7);
  QueryResult result;
  for (int g = 0; g < 5; ++g) {
    result.groups["k" + std::to_string(g)] = {randomPartial(rng),
                                              randomPartial(rng)};
  }
  const std::string bytes = encode(result);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(decode(bytes.substr(0, n)), CorruptData) << n;
  }
}

}  // namespace
}  // namespace dpss::query
