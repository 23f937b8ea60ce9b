// Node-side topN scan microbench: scanSegment for Table II Q6 (top 100
// groups by count over the high-cardinality dimension, five aggregations)
// against the same spec with limit = 0, which ships every group, on one
// 10,000-row ad-tech segment. A topN scan that picks its groups on the
// per-id accumulators builds ~800 group keys (the top 400 and every tie
// at the cutoff) where the limit-0 scan builds all ~4,200, so
// `topn.speedup` (full / limit) sits well above 1; a scan that builds
// every group and then truncates reads below 1.
//
// Prints a JSON document; BENCH_scan.json at the repo root is seeded from
// this output. scripts/check_bench.py scan re-runs `--quick` and gates the
// within-run ratio, never the absolute times.
//
// Usage: bench_scan [--quick]
#include <cstdio>
#include <cstring>

#include "bench/bench_timing.h"
#include "query/engine.h"
#include "storage/adtech.h"

int main(int argc, char** argv) {
  using namespace dpss;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  storage::AdTechConfig config;
  config.rowsPerSegment = 10'000;
  const storage::SegmentPtr segment =
      storage::generateAdTechSegments(config, "ads", 1)[0];
  const Interval all(0, 4'000'000'000'000LL);
  const query::QuerySpec topN = query::tableTwoQuery(6, "ads", all);
  query::QuerySpec full = topN;
  full.limit = 0;

  const std::size_t groups = query::scanSegment(*segment, full).groups.size();
  const std::size_t shipped = query::scanSegment(*segment, topN).groups.size();
  const int iters = quick ? 100 : 400;
  const auto [fullUs, limitUs] = bench::interleavedMedianUs(
      iters, [&](int) { (void)query::scanSegment(*segment, full); },
      [&](int) { (void)query::scanSegment(*segment, topN); });

  std::printf("{\n  \"bench\": \"scan\",\n");
  std::printf("  \"rows\": %zu,\n", config.rowsPerSegment);
  std::printf(
      "  \"topn\": {\"query\": 6, \"limit\": %zu, \"iters\": %d, "
      "\"groups\": %zu, \"shipped\": %zu, \"full_us\": %.1f, "
      "\"limit_us\": %.1f, \"speedup\": %.2f}\n}\n",
      topN.limit, iters, groups, shipped, fullUs, limitUs, fullUs / limitUs);
  return 0;
}
