#!/usr/bin/env bash
# The repo's verification gate, in four stages:
#
#   1. static   — dpss-lint + dpss-arch over src/, BEFORE the build:
#                 both finish in under a second, so layer violations and
#                 privacy-hatch leaks fail fast (the arch tree run
#                 re-runs post-configure with compile_commands coverage
#                 as the dpss_arch_tree ctest)
#   2. tier-1   — full build (with -Werror for src/) + full ctest suite,
#                 then the multi-process smokes: loopback cluster, admin
#                 plane, the bench gates, and perfbench --smoke with the
#                 BENCH_e2e.json counter gate on real dpss_node processes
#   3. asan     — the FULL ctest suite again under ASan+UBSan
#                 (UBSan non-recoverable, so any UB fails the test)
#   4. tsan     — the concurrency-sensitive subset under ThreadSanitizer
#                 (obs layer, thread pool, churn/chaos/rpc-policy tests;
#                 the full suite under TSan is too slow for a local gate)
#
# Clang's -Wthread-safety analysis over the annotated mutexes needs a
# clang toolchain and runs in CI (.github/workflows/check.yml); if
# clang++ is on PATH we run it here too.
#
# Run from the repo root. Set DPSS_CHECK_SKIP_SANITIZERS=1 for a quick
# tier-1+lint pass.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== static: dpss-lint + dpss-arch (fail fast, pre-build) =="
python3 scripts/dpss_lint.py --selftest
python3 scripts/dpss_lint.py --check-fixtures tests/lint_fixtures
python3 scripts/dpss_lint.py
python3 scripts/dpss_arch.py --selftest
python3 scripts/dpss_arch.py --no-compile-commands

echo
echo "== tier-1: full build (DPSS_WERROR=ON) + ctest =="
cmake -B build -S . -DDPSS_WERROR=ON >/dev/null
cmake --build build -j "$JOBS" >/dev/null
(cd build && ctest --output-on-failure -j "$JOBS")

echo
echo "== multi-process: loopback cluster + elastic join->drain + leader-kill failover =="
# MultiprocessClusterTest includes ElasticScaleOutAndDrainUnderLoad
# (runtime 2->8->2 scale under continuous query/PSS load) and
# CoordinatorFailoverOnLeaderKill (SIGKILL the leader mid-drain) — the
# membership smoke this gate requires.
./build/tests/net_test --gtest_filter='MultiprocessClusterTest.*'

echo
echo "== admin smoke: boot a node, scrape /healthz and /metrics =="
python3 scripts/admin_smoke.py build/src/net/dpss_node

echo
echo "== bench smoke: pss hot-path speedup ratios vs BENCH_pss.json =="
python3 scripts/check_bench.py pss

echo
echo "== bench smoke: rebalancer invariants vs BENCH_rebalance.json =="
python3 scripts/check_bench.py rebalance

echo
echo "== bench smoke: subscription matcher invariants vs BENCH_subs.json =="
python3 scripts/check_bench.py subs

echo
echo "== perfbench smoke: every workload on real dpss_node processes =="
# Builds into .bench_build; ground-truth PSS answers, exactly-once
# subscription delivery and Q1-Q6 engine equivalence, every process reaped.
python3 perfbench/run.py --smoke

echo
echo "== bench gate: pss_oneshot seed-pure counters vs BENCH_e2e.json =="
python3 scripts/check_bench.py e2e

echo
echo "== clang-tidy: curated .clang-tidy profile over src/ TUs =="
python3 scripts/run_clang_tidy.py --build-dir build

if [[ "${DPSS_CHECK_SKIP_SANITIZERS:-0}" == "1" ]]; then
  echo
  echo "sanitizer stages skipped (DPSS_CHECK_SKIP_SANITIZERS=1)"
  exit 0
fi

echo
echo "== asan+ubsan: full ctest suite under -fsanitize=address,undefined =="
cmake -B build-asan -S . -DDPSS_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" >/dev/null
(cd build-asan && ctest --output-on-failure -j "$JOBS")

echo
echo "== tsan: obs_test + thread_pool + net/cluster subsets under -fsanitize=thread =="
cmake -B build-tsan -S . -DDPSS_SANITIZE=thread >/dev/null
cmake --build build-tsan --target obs_test common_test cluster_test net_test -j "$JOBS" >/dev/null
# obs_test covers the span ring, trace collector and slow-query log; the
# http admin tests exercise the admin loop thread against client threads.
./build-tsan/tests/obs_test
./build-tsan/tests/net_test --gtest_filter='HttpAdminTest.*'
./build-tsan/tests/common_test --gtest_filter='ThreadPool.*'
# ClusterChaos.Sweep* (50 whole-cluster stories) is deliberately excluded:
# it is deterministic single-driver logic and far too slow under TSan.
./build-tsan/tests/cluster_test --gtest_filter='Concurrency.*:RpcPolicy.*:CallPolicyTest.*:ChaosPolicy.*:ChaosTransport.*:Chaos.IdenticalSeedReproducesIdenticalSchedule:ClusterChaos.SingleSeedReplaysCombinedFaultStory:ClusterChaos.SlowReadsDelayLoadsButQueriesStayCorrect:ClusterChaos.RealtimeCrashLosesUnpersistedStopFlushes'

if command -v clang++ >/dev/null 2>&1; then
  echo
  echo "== clang thread-safety: -Werror=thread-safety over annotated mutexes =="
  cmake -B build-tsa -S . -DDPSS_THREAD_SAFETY=ON \
        -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-tsa -j "$JOBS" >/dev/null
else
  echo
  echo "clang++ not found; thread-safety analysis left to CI"
fi

echo
echo "all checks passed"
