// Per-call timing helpers for the JSON microbenches whose within-run
// ratios scripts/check_bench.py gates.
#pragma once

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace dpss::bench {

using SteadyClock = std::chrono::steady_clock;

/// Microseconds per iteration of `fn` over `iters` runs.
template <typename Fn>
double usPerIter(int iters, Fn&& fn) {
  const auto t0 = SteadyClock::now();
  for (int i = 0; i < iters; ++i) fn(i);
  const auto dt =
      std::chrono::duration<double, std::micro>(SteadyClock::now() - t0);
  return dt.count() / iters;
}

inline double median(std::vector<double> xs) {
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  return xs[xs.size() / 2];
}

/// Median microseconds per call of `a` and of `b`, timed call by call and
/// alternating the two: both see the same host, and a burst of other
/// work sets neither figure. For ratios gated with a tight band.
template <typename FnA, typename FnB>
std::pair<double, double> interleavedMedianUs(int iters, FnA&& a, FnB&& b) {
  std::vector<double> as, bs;
  for (int i = 0; i < iters; ++i) {
    as.push_back(usPerIter(1, [&](int) { a(i); }));
    bs.push_back(usPerIter(1, [&](int) { b(i); }));
  }
  return {median(std::move(as)), median(std::move(bs))};
}

}  // namespace dpss::bench
