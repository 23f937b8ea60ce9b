// Differential fuzzing of the full distributed pipeline: random events ->
// segment builder -> segment codec -> deep storage -> coordinator ->
// historical nodes -> broker scatter/merge, compared against a direct
// in-memory aggregation of the same events. Any divergence anywhere in
// the stack (codec, bitmap, dictionary, engine, merge, routing) fails.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "storage/segment_builder.h"

namespace dpss::cluster {
namespace {

using storage::InputRow;
using storage::MetricType;
using storage::Schema;

constexpr TimeMs kHour = 3'600'000;

Schema fuzzSchema() {
  Schema s;
  s.dimensions = {"d0", "d1"};
  s.metrics = {{"m_long", MetricType::kLong},
               {"m_double", MetricType::kDouble}};
  return s;
}

std::vector<InputRow> randomRows(Rng& rng, std::size_t count) {
  std::vector<InputRow> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    InputRow row;
    row.timestamp = static_cast<TimeMs>(rng.below(4 * kHour));
    row.dimensions = {"a" + std::to_string(rng.below(6)),
                      "b" + std::to_string(rng.below(4))};
    row.metrics = {static_cast<double>(rng.between(-50, 50)),
                   rng.uniform01() * 10.0};
    rows.push_back(std::move(row));
  }
  return rows;
}

// One segment per (hour, partition). An hour's rows are dealt round-robin
// over the partitions, so the broker merges several partitions of every
// queried interval.
constexpr std::size_t kPartitionsPerHour = 3;

std::vector<storage::SegmentPtr> buildSegments(
    const std::vector<InputRow>& rows) {
  std::map<std::pair<TimeMs, std::size_t>, storage::SegmentBuilder> builders;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TimeMs hour = rows[i].timestamp - rows[i].timestamp % kHour;
    builders.try_emplace({hour, i % kPartitionsPerHour}, fuzzSchema())
        .first->second.add(rows[i]);
  }
  std::vector<storage::SegmentPtr> segments;
  for (auto& [key, builder] : builders) {
    storage::SegmentId id;
    id.dataSource = "fuzz";
    id.interval = Interval(key.first, key.first + kHour);
    id.version = "v1";
    id.partition = static_cast<std::uint32_t>(key.second);
    segments.push_back(builder.build(id));
  }
  return segments;
}

class Differential : public ::testing::TestWithParam<int> {};

TEST_P(Differential, ClusterAggregationMatchesDirectComputation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 997 + 5);
  const auto rows = randomRows(rng, 200 + rng.below(400));

  // Distributed path.
  ManualClock clock(10 * kHour);
  Cluster cluster(clock, {.historicalNodes = 1 + GetParam() % 3});
  cluster.publishSegments(buildSegments(rows));

  // Random query: random interval, random group-by, random filter.
  query::QuerySpec spec;
  spec.dataSource = "fuzz";
  const TimeMs lo = static_cast<TimeMs>(rng.below(2 * kHour));
  const TimeMs hi = lo + 1 + static_cast<TimeMs>(rng.below(3 * kHour));
  spec.interval = Interval(lo, hi);
  spec.aggregations = {query::countAgg("cnt"),
                       query::longSumAgg("m_long", "sl"),
                       query::doubleSumAgg("m_double", "sd"),
                       query::minAgg("m_long", "mn"),
                       query::maxAgg("m_long", "mx")};
  const bool grouped = rng.chance(0.5);
  if (grouped) spec.groupByDimension = "d0";
  std::string filterValue;
  if (rng.chance(0.5)) {
    filterValue = "b" + std::to_string(rng.below(4));
    spec.filter = query::selectorFilter("d1", filterValue);
  }

  const auto outcome = cluster.broker().query(spec);

  // Direct path over the raw rows.
  struct Acc {
    double cnt = 0, sl = 0, sd = 0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
  };
  std::map<std::string, Acc> direct;
  for (const auto& row : rows) {
    if (!spec.interval.contains(row.timestamp)) continue;
    if (!filterValue.empty() && row.dimensions[1] != filterValue) continue;
    Acc& acc = direct[grouped ? row.dimensions[0] : ""];
    acc.cnt += 1;
    acc.sl += std::llround(row.metrics[0]);
    acc.sd += row.metrics[1];
    acc.mn = std::min(acc.mn, std::llround(row.metrics[0]) * 1.0);
    acc.mx = std::max(acc.mx, std::llround(row.metrics[0]) * 1.0);
  }

  if (direct.empty()) {
    if (grouped) {
      EXPECT_TRUE(outcome.rows.empty());
    } else {
      ASSERT_EQ(outcome.rows.size(), 1u);
      EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 0.0);
    }
    return;
  }
  ASSERT_EQ(outcome.rows.size(), direct.size());
  for (const auto& row : outcome.rows) {
    const auto it = direct.find(row.group);
    ASSERT_NE(it, direct.end()) << "unexpected group " << row.group;
    EXPECT_DOUBLE_EQ(row.values[0], it->second.cnt) << row.group;
    EXPECT_DOUBLE_EQ(row.values[1], it->second.sl) << row.group;
    EXPECT_NEAR(row.values[2], it->second.sd, 1e-9) << row.group;
    EXPECT_DOUBLE_EQ(row.values[3], it->second.mn) << row.group;
    EXPECT_DOUBLE_EQ(row.values[4], it->second.mx) << row.group;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential, ::testing::Range(0, 12));

}  // namespace
}  // namespace dpss::cluster
