// Metrics registry: interning, exact concurrent counting, log2-histogram
// quantiles, snapshot contents, thread-local registry routing and
// the Prometheus / JSON expositions.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <regex>
#include <thread>
#include <vector>

namespace dpss::obs {
namespace {

TEST(Intern, SameIdentitySameId) {
  const MetricId a = internCounter("obs_test.intern.same");
  const MetricId b = internCounter("obs_test.intern.same");
  EXPECT_EQ(a, b);
}

TEST(Intern, DistinctByNameKindAndLabels) {
  const MetricId a = internCounter("obs_test.intern.x");
  const MetricId b = internCounter("obs_test.intern.y");
  const MetricId c = internHistogram("obs_test.intern.x");
  const MetricId d = internCounter("obs_test.intern.x", {{"op", "enc"}});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(Intern, LabelOrderIsCanonical) {
  const MetricId a =
      internCounter("obs_test.intern.labels", {{"a", "1"}, {"b", "2"}});
  const MetricId b =
      internCounter("obs_test.intern.labels", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(Counter, ConcurrentIncrementsSumExactly) {
  MetricsRegistry reg("test-node");
  const MetricId id = internCounter("obs_test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, id] {
      for (int i = 0; i < kIncrements; ++i) reg.counter(id).inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter(id).value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry reg;
  const MetricId id = internGauge("obs_test.gauge.basic");
  reg.gauge(id).set(42);
  EXPECT_EQ(reg.gauge(id).value(), 42);
  reg.gauge(id).add(-50);
  EXPECT_EQ(reg.gauge(id).value(), -8);
}

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(1ULL << 40), 41u);
  // A value always falls in a bucket whose upper bound covers it.
  for (const std::uint64_t v : {0ULL, 1ULL, 7ULL, 1000ULL, 123456789ULL}) {
    EXPECT_LE(v, Histogram::bucketUpper(Histogram::bucketOf(v)));
  }
}

TEST(Histogram, QuantileSanity) {
  Histogram h;
  // 90 fast ops (~100ns) and 10 slow ones (~1ms): p50 must sit near the
  // fast mode and p99 near the slow one, within log2-bucket resolution.
  for (int i = 0; i < 90; ++i) h.observe(100);
  for (int i = 0; i < 10; ++i) h.observe(1'000'000);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 90ULL * 100 + 10ULL * 1'000'000);
  EXPECT_GE(s.quantile(0.5), 64.0);    // 100 lives in [64, 128)
  EXPECT_LE(s.quantile(0.5), 128.0);
  EXPECT_GE(s.quantile(0.99), 524'288.0);  // 1e6 lives in [2^19, 2^20)
  EXPECT_LE(s.quantile(0.99), 1'048'576.0);
  EXPECT_LE(s.quantile(0.5), s.quantile(0.95));
  EXPECT_LE(s.quantile(0.95), s.quantile(0.99));
  EXPECT_NEAR(s.mean(), (90.0 * 100 + 10.0 * 1e6) / 100.0, 1.0);
}

TEST(Histogram, ConcurrentObservationsCountExactly) {
  MetricsRegistry reg;
  const MetricId id = internHistogram("obs_test.hist.concurrent");
  constexpr int kThreads = 8;
  constexpr int kObs = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, id, t] {
      for (int i = 0; i < kObs; ++i) {
        reg.histogram(id).observe(static_cast<std::uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto s = reg.histogram(id).snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kObs);
  std::uint64_t bucketSum = 0;
  for (const auto b : s.buckets) bucketSum += b;
  EXPECT_EQ(bucketSum, s.count);
}

TEST(Snapshot, OnlyTouchedMetricsAppear) {
  const MetricId touched = internCounter("obs_test.snap.touched");
  internCounter("obs_test.snap.untouched");
  MetricsRegistry reg;
  reg.counter(touched).inc();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_NE(snap.find("obs_test.snap.touched"), nullptr);
  EXPECT_EQ(snap.find("obs_test.snap.untouched"), nullptr);
}

TEST(ScopedRegistry, RoutesCurrentRegistryAndNests) {
  const MetricId id = internCounter("obs_test.scoped.routing");
  MetricsRegistry outer("outer"), inner("inner");
  const std::uint64_t globalBefore =
      globalRegistry().counter(id).value();
  {
    ScopedRegistry a(outer);
    currentRegistry().counter(id).inc();
    {
      ScopedRegistry b(inner);
      currentRegistry().counter(id).inc();
      currentRegistry().counter(id).inc();
    }
    currentRegistry().counter(id).inc();
  }
  EXPECT_EQ(outer.counter(id).value(), 2u);
  EXPECT_EQ(inner.counter(id).value(), 2u);
  EXPECT_EQ(globalRegistry().counter(id).value(), globalBefore);
}

TEST(Exposition, TextIsValidPrometheus) {
  MetricsRegistry reg("bench-1");
  reg.counter(internCounter("obs_test.render.counter")).inc(5);
  reg.histogram(internHistogram("obs_test.render.hist")).observe(300);
  const std::string text = renderText(reg.snapshot());

  EXPECT_NE(text.find("dpss_obs_test_render_counter{node=\"bench-1\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dpss_obs_test_render_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("dpss_obs_test_render_hist_count"), std::string::npos);

  // Every line must be a comment or `name{labels} value`.
  const std::regex lineRe(
      R"(^(# (TYPE|HELP) .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?)$)");
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "unterminated line";
    const std::string line = text.substr(pos, nl - pos);
    EXPECT_TRUE(std::regex_match(line, lineRe)) << "bad line: " << line;
    pos = nl + 1;
  }
}

TEST(Exposition, JsonContainsQuantiles) {
  MetricsRegistry reg("j");
  reg.histogram(internHistogram("obs_test.render.json_hist")).observe(100);
  const std::string json = renderJson(reg.snapshot());
  EXPECT_NE(json.find("\"node\":\"j\""), std::string::npos);
  EXPECT_NE(json.find("obs_test.render.json_hist"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

}  // namespace
}  // namespace dpss::obs
