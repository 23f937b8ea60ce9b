// Node-side topN scan microbench: scanSegment for Table II Q6 (top 100
// groups by count over the high-cardinality dimension, five aggregations)
// against the same spec with limit = 0, which ships every group, on one
// 10,000-row ad-tech segment. A topN scan that picks its groups on the
// per-id accumulators builds ~800 group keys (the top 400 and every tie
// at the cutoff) where the limit-0 scan builds all ~4,200, so
// `topn.speedup` (full / limit) sits well above 1; a scan that builds
// every group and then truncates reads below 1.
//
// Two figures cover the broker's side of the same query: `partial.bytes`,
// the serialized size of the topN scan's partial (what one Q6 segment
// puts on the wire, gated as an exact ceiling), and `finalize.speedup`,
// finalizing the limit-0 partial (every group) with limit 0 against
// limit 100. A finalize that ranks handles and builds rows only for the
// limit reads well above 1; one that builds and sorts a row per group
// reads about 1.
//
// Prints a JSON document; BENCH_scan.json at the repo root is seeded from
// this output. scripts/check_bench.py scan re-runs `--quick` and gates the
// within-run ratio, never the absolute times.
//
// Usage: bench_scan [--quick]
#include <cstdio>
#include <cstring>

#include "bench/bench_timing.h"
#include "common/bytes.h"
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

  const query::QueryResult every = query::scanSegment(*segment, full);
  const std::size_t groups = every.groups.size();
  const std::size_t shipped = query::scanSegment(*segment, topN).groups.size();
  const int iters = quick ? 100 : 400;
  const auto [fullUs, limitUs] = bench::interleavedMedianUs(
      iters, [&](int) { (void)query::scanSegment(*segment, full); },
      [&](int) { (void)query::scanSegment(*segment, topN); });

  ByteWriter wire;
  query::scanSegment(*segment, topN).serialize(wire);

  const auto [finalizeAllUs, finalizeTopUs] = bench::interleavedMedianUs(
      iters, [&](int) { (void)query::finalizeResult(full, every); },
      [&](int) { (void)query::finalizeResult(topN, every); });

  std::printf("{\n  \"bench\": \"scan\",\n");
  std::printf("  \"rows\": %zu,\n", config.rowsPerSegment);
  std::printf(
      "  \"topn\": {\"query\": 6, \"limit\": %zu, \"iters\": %d, "
      "\"groups\": %zu, \"shipped\": %zu, \"full_us\": %.1f, "
      "\"limit_us\": %.1f, \"speedup\": %.2f},\n",
      topN.limit, iters, groups, shipped, fullUs, limitUs, fullUs / limitUs);
  std::printf("  \"partial\": {\"query\": 6, \"bytes\": %zu},\n",
              wire.size());
  std::printf(
      "  \"finalize\": {\"query\": 6, \"groups\": %zu, \"limit\": %zu, "
      "\"full_us\": %.1f, \"limit_us\": %.1f, \"speedup\": %.2f}\n}\n",
      groups, topN.limit, finalizeAllUs, finalizeTopUs,
      finalizeAllUs / finalizeTopUs);
  return 0;
}
