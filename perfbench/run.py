#!/usr/bin/env python3
"""End-to-end benchmark of dpss on a real multi-process cluster.

    python3 perfbench/run.py --workload pss_oneshot|subs_live|ana_mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # all workloads, toy sizes

Run from the repository root. The first run builds the dpss libraries,
dpss_node and the load generator (perfbench/driver, see CMakeLists.txt)
into $CARGO_TARGET_DIR (default .bench_build) with CMake.

--trace 0 boots the workload's cluster five times (setup_s is the median
boot-to-settled time), measures the last boot for --seconds with the
nodes' span shipping off, and prints the end-to-end metrics. --trace 1
measures the workload twice for half of --seconds each, untraced then
traced, and prints the
per-layer metrics: layer times from the coordinator's assembled traces
plus the benchmark's own spans around each client call, counter deltas
from every node's /metrics.json, per-process CPU from /proc, and the
tracing overhead (traced minus untraced).

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Every spawned process is stopped and reaped on every exit path; a
dpss_node left over from an earlier run fails the run.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pss_oneshot", "subs_live", "ana_mixed")
SETUPS = 5           # boots per --trace 0 run; setup_s is their median
RUN_BUDGET_S = 170   # one run, build excluded; must end within 180 s
SMOKE_SECONDS = 2
WINDOWS = 3          # p50_ms is taken in the quietest third of a run

# Failure reasons that mean a wrong answer, as opposed to an operation
# that did not complete (deadline, unavailable node).
WRONG_OUTPUT = ("wrong_result", "missing_slice", "misrouted", "duplicate",
                "missing", "corrupt_payload", "realtime_count",
                "buffer_overflow", "crypto_error", "unsolvable_snapshot")

# The tail percentile reported for each workload: the highest with at
# least ten samples beyond it in a 30 s untraced run.
TAIL_PERCENTILE = {"pss_oneshot": 90, "subs_live": 90, "ana_mixed": 99}
ANA_SCAN = ("q4", "q5", "q6")
ANA_LIGHT = ("q1", "q2", "q3", "rt")


class RunError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --- build and process hygiene ----------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RunError("no dpss source tree next to perfbench/ "
                       "(run from a full checkout)")
    cmake_dir = build_dir() / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    if not (cmake_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", jobs,
                    "--target", "e2e_driver"],
                   stdout=sys.stderr, check=True)
    return cmake_dir / "e2e_driver", cmake_dir / "dpss" / "net" / "dpss_node"


def live_nodes(node_bin):
    """Pids of processes running this checkout's dpss_node binary."""
    target = str(node_bin)
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            argv0 = (entry / "cmdline").read_bytes().split(b"\0")[0]
        except OSError:
            continue
        if argv0.decode(errors="replace") == target:
            pids.append(int(entry.name))
    return pids


def run_driver(driver, node_bin, args, deadline):
    """Runs the driver in its own process group and returns its record.

    On every exit path (timeout, signal, error) the driver first gets
    SIGTERM, which makes it stop and reap its nodes, and then the whole
    group is SIGKILLed, so a node the driver could not reap dies too."""
    out = build_dir() / ("run-%d.json" % os.getpid())
    if out.exists():
        out.unlink()
    cmd = [str(driver), "--node-bin", str(node_bin), "--out", str(out)] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("driver timed out: " + " ".join(args))
    finally:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGTERM)
                proc.wait(timeout=5)
            except (ProcessLookupError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    settle = time.monotonic() + 5
    while live_nodes(node_bin):
        if time.monotonic() > settle:
            raise RunError("dpss_node processes outlived the driver: %s"
                           % live_nodes(node_bin))
        time.sleep(0.05)
    if rc != 0:
        raise RunError("driver exited with %d: %s" % (rc, " ".join(args)))
    try:
        with open(out) as f:
            return json.load(f)
    finally:
        out.unlink()


# --- reductions --------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated percentile (p in [0, 100])."""
    v = sorted(values)
    if not v:
        raise RunError("no samples")
    k = (len(v) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def geomean(values):
    return math.exp(mean([math.log(x) for x in values]))


def counters(body):
    """Counter totals of one /metrics.json document (registries merged)."""
    total = {}
    for snap in body["nodes"]:
        for m in snap["metrics"]:
            if m["kind"] == "counter":
                total[m["name"]] = total.get(m["name"], 0) + m["value"]
    return total


def counter_delta(phase, name, roles=None):
    total = 0
    for node, body in phase["metrics_end"].items():
        if roles is not None and phase["roles"][node] not in roles:
            continue
        after = counters(body).get(name, 0)
        before = counters(phase["metrics_start"][node]).get(name, 0)
        total += after - before
    return total


def cpu_seconds(phase, roles=None):
    ticks = sum(t for node, t in phase["cpu_ticks"].items()
                if roles is None or phase["roles"][node] in roles)
    return ticks / phase["clk_tck"]


def latencies(rec):
    """Per-class latency samples (ms) of the workload's operations."""
    if rec["workload"] == "ana_mixed":
        return {k.split(".", 1)[1]: v for k, v in rec["series"].items()
                if k.startswith("latency_ms.")}
    return {"all": rec["series"]["latency_ms"]}


def completed_ops(rec):
    if rec["workload"] == "subs_live":
        return rec["scalars"]["delivered"]
    return sum(len(v) for v in latencies(rec).values())


def class_p50(classes):
    """Geometric mean over request classes of each class's median: one
    class for the PSS workloads, Q1-Q6 + realtime for ana_mixed."""
    return geomean([statistics.median(v) for v in classes.values()])


def least_disturbed_p50(classes):
    """class_p50 of the least-disturbed of WINDOWS consecutive slices of
    the run (samples are stored in completion order).

    Co-tenants on a shared host only ever add latency, and in bursts: the
    hypervisor's steal time moved between 0.3% and 23% from one 30 s run
    to the next, and 5 s slices of one run differed by up to 2.9x. Three
    slices keep ~40 queries per slice on the slowest workload. A
    change to the program moves every slice, the quietest one included,
    so the quietest slice is the steadiest view of the program itself;
    the whole-run figure is reported per layer as p50_run_ms."""
    best = math.inf
    for w in range(WINDOWS):
        part = {}
        for name, v in classes.items():
            n = len(v)
            part[name] = v[w * n // WINDOWS:(w + 1) * n // WINDOWS]
            if not part[name]:
                raise RunError("too few samples for %d windows" % WINDOWS)
        best = min(best, class_p50(part))
    return best


def figures(rec):
    """Every whole-workload figure of one run record."""
    w = rec["workload"]
    classes = latencies(rec)
    if any(not v for v in classes.values()):
        raise RunError("a request class completed no operation")
    pooled = [x for v in classes.values() for x in v]
    sc, phase = rec["scalars"], rec["phase"]
    ops = completed_ops(rec)
    if w == "subs_live":
        # Delivered events per second up to the last delivery, and one
        # fold per (event x standing query).
        per_s = ops / sc["last_delivery_s"]
        work = ops * sc["subscriptions"]
    else:
        per_s = ops / sc["window_s"]
        work = ops
    return {
        "setup_s": (statistics.median(rec["setup_s"]), "s"),
        "p50_ms": (least_disturbed_p50(classes), "ms"),
        "p50_run_ms": (class_p50(classes), "ms"),
        "tail_ms": (percentile(pooled, TAIL_PERCENTILE[w]), "ms"),
        "ops_per_s": (per_s, "1/s"),
        "ops_per_cpu_s": (work / cpu_seconds(phase), "1/CPU-s"),
    }


# The gated metrics. Tail latency, whole-run latency and wall-clock
# throughput move with the hypervisor's steal time on a shared host far
# more than the bounds allow, so they are reported per layer (unbounded).
END_TO_END = ("setup_s", "p50_ms", "ops_per_cpu_s")


def end_to_end(rec):
    f = figures(rec)
    return {name: f[name] for name in END_TO_END}


def self_ms(node):
    """Span duration minus the part of it its children cover (ms)."""
    start, end = node["start_ns"], node["start_ns"] + node["duration_ns"]
    covered, cursor = 0, start
    for c in sorted(node["children"], key=lambda c: c["start_ns"]):
        lo = max(c["start_ns"], cursor)
        hi = min(c["start_ns"] + c["duration_ns"], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (node["duration_ns"] - covered) / 1e6


def root_span(item, name):
    trace = item.get("trace")
    if not trace or not trace["traces"]:
        return None
    for span in trace["traces"][0]["spans"]:
        if span["name"] == name:
            return span
    return None


def critical_handler(root):
    """The remote handler under the scatter child that finished last."""
    scatters = [c for c in root["children"] if c["name"].endswith("scatter")]
    if not scatters:
        return None
    last = max(scatters, key=lambda c: c["start_ns"] + c["duration_ns"])
    remote = [c for c in last["children"] if c["wire_ns"] > 0]
    return remote[0] if remote else None


def pss_layers(rec):
    enc, call, open_, slice_, self_, wire, total = [], [], [], [], [], [], []
    for item in rec["traces"]:
        root = root_span(item, "broker.private_search")
        if root is None:
            continue
        handler = critical_handler(root)
        if handler is None:
            continue
        c = item["client"]
        enc.append(c["encrypt_ms"])
        call.append(c["call_ms"])
        open_.append(c["open_ms"])
        slice_.append(handler["duration_ns"] / 1e6)
        self_.append(self_ms(root))
        wire.append(c["call_ms"] - root["duration_ns"] / 1e6
                    + handler["wire_ns"] / 1e6)
        total.append(c["total_ms"])
    if not total:
        raise RunError("no assembled PSS trace")
    covered = mean(enc) + mean(open_) + mean(slice_) + mean(self_) + mean(wire)
    return {
        "pss.client_encrypt_ms": mean(enc),
        "pss.broker_call_ms": mean(call),
        "pss.historical_slice_ms": mean(slice_),
        "pss.broker_self_ms": mean(self_),
        "pss.wire_ms": mean(wire),
        "pss.client_open_ms": mean(open_),
        "pss.layer_coverage": covered / mean(total),
        "pss.traced_queries": len(total),
    }


def ana_layers(rec):
    scan, merge, self_, wire, traced = [], [], [], [], 0
    for item in rec["traces"]:
        root = root_span(item, "broker.query")
        if root is None:
            continue
        handler = critical_handler(root)
        if handler is None:
            continue
        traced += 1
        self_.append(self_ms(root))
        wire.append(item["client"]["latency_ms"] - root["duration_ns"] / 1e6
                    + handler["wire_ns"] / 1e6)
        stack = list(root["children"])
        scatters = [c for c in root["children"]
                    if c["name"] == "broker.scatter"]
        while stack:
            s = stack.pop()
            stack.extend(s["children"])
            if s["name"] == "historical.scan.segment":
                scan.append(s["duration_ns"] / 1e6)
            if s["name"] == "broker.merge":
                # Merge work after the last scatter answered; before that
                # the span only waits for the scatter futures.
                done = max([x["start_ns"] + x["duration_ns"]
                            for x in scatters] or [s["start_ns"]])
                end = s["start_ns"] + s["duration_ns"]
                merge.append(max(0, end - max(done, s["start_ns"])) / 1e6)
    if not traced:
        raise RunError("no assembled analytics trace")
    return {
        "ana.historical_scan_ms": mean(scan),
        "ana.broker_merge_ms": mean(merge),
        "ana.broker_self_ms": mean(self_),
        "ana.wire_ms": mean(wire),
        "ana.traced_queries": traced,
    }


# Every per-layer metric, its unit, and the workload that measures it. A
# workload that bypasses a layer reports 0 for it (no work happened there).
PER_LAYER = {
    # pss_oneshot: layer times along the critical path (traced run)
    "pss.client_encrypt_ms": "ms", "pss.broker_call_ms": "ms",
    "pss.historical_slice_ms": "ms", "pss.broker_self_ms": "ms",
    "pss.wire_ms": "ms", "pss.client_open_ms": "ms",
    "pss.layer_coverage": "ratio", "pss.traced_queries": "count",
    "pss.retries_per_query": "count", "pss.bytes_per_query": "bytes",
    "pss.folds_per_query": "count", "pss.server_encrypts_per_query": "count",
    "pss.cpu.historical_ms_per_query": "ms", "pss.cpu.broker_ms_per_query": "ms",
    "pss.cpu.client_ms_per_query": "ms",
    # subs_live
    "subs.poll_ms": "ms", "subs.ingest_lag_max": "count",
    "subs.folds": "count", "subs.snapshots": "count",
    "subs.padded_ratio": "ratio", "subs.unsolvable": "count",
    "subs.cpu.realtime_ms_per_doc": "ms", "subs.cpu.broker_ms_per_poll": "ms",
    "subs.cpu.client_ms_per_doc": "ms",
    # ana_mixed
    "ana.scan_p50_ms": "ms", "ana.light_p50_ms": "ms",
    "ana.historical_scan_ms": "ms", "ana.broker_merge_ms": "ms",
    "ana.broker_self_ms": "ms", "ana.wire_ms": "ms",
    "ana.traced_queries": "count", "ana.rpcs_per_query": "count",
    "ana.bytes_per_query": "bytes", "ana.rows_scanned_per_query": "count",
    "ana.rt_ingest_lag_max": "count",
    "ana.cpu.historical_ms_per_query": "ms", "ana.cpu.realtime_ms_per_s": "ms",
    "ana.cpu.broker_ms_per_query": "ms",
    # every workload
    "p50_run_ms": "ms", "tail_ms": "ms", "ops_per_s": "1/s",
    "host.steal_pct": "%",
    "gen.late_ms_max": "ms", "samples": "count",
    "trace.overhead_p50_pct": "%", "trace.overhead_ops_pct": "%",
}


def per_layer(untraced, traced):
    w = traced["workload"]
    phase, sc = traced["phase"], traced["scalars"]
    out = {name: 0.0 for name in PER_LAYER}
    ops = completed_ops(traced)
    if ops <= 0:
        raise RunError("traced run completed no operation")
    ms = lambda roles: cpu_seconds(phase, roles) * 1000.0
    if w == "pss_oneshot":
        out.update(pss_layers(traced))
        out["pss.retries_per_query"] = mean(traced["series"]["retries"])
        out["pss.bytes_per_query"] = counter_delta(
            phase, "net.server.bytes_out", {"historical", "broker"}) / ops
        out["pss.folds_per_query"] = counter_delta(
            phase, "paillier.fold.count", {"historical"}) / ops
        out["pss.server_encrypts_per_query"] = counter_delta(
            phase, "paillier.encrypt.count", {"historical"}) / ops
        out["pss.cpu.historical_ms_per_query"] = ms({"historical"}) / ops
        out["pss.cpu.broker_ms_per_query"] = ms({"broker"}) / ops
        out["pss.cpu.client_ms_per_query"] = ms({"driver"}) / ops
    elif w == "subs_live":
        snaps = counter_delta(phase, "pss.subscription.snapshots",
                              {"realtime"})
        out["subs.poll_ms"] = mean(traced["series"]["poll_ms"])
        out["subs.ingest_lag_max"] = sc["ingest_lag_max"]
        out["subs.folds"] = counter_delta(phase, "pss.subscription.documents",
                                          {"realtime"})
        out["subs.snapshots"] = snaps
        out["subs.padded_ratio"] = counter_delta(
            phase, "pss.subscription.padded", {"realtime"}) / max(
                1, snaps * sc["buffer_length"])
        out["subs.unsolvable"] = sc["unsolvable"]
        out["subs.cpu.realtime_ms_per_doc"] = ms({"realtime"}) / sc["events"]
        out["subs.cpu.broker_ms_per_poll"] = ms({"broker"}) / sc["polls"]
        out["subs.cpu.client_ms_per_doc"] = ms({"driver"}) / ops
    else:
        out.update(ana_layers(traced))
        classes = latencies(untraced)
        out["ana.scan_p50_ms"] = geomean(
            [statistics.median(classes[c]) for c in ANA_SCAN])
        out["ana.light_p50_ms"] = geomean(
            [statistics.median(classes[c]) for c in ANA_LIGHT])
        out["ana.rpcs_per_query"] = counter_delta(
            phase, "broker.scatter.rpcs", {"broker"}) / ops
        out["ana.bytes_per_query"] = counter_delta(
            phase, "net.server.bytes_out",
            {"historical", "realtime", "broker"}) / ops
        out["ana.rows_scanned_per_query"] = counter_delta(
            phase, "query.scan.rows", {"historical", "realtime"}) / ops
        out["ana.rt_ingest_lag_max"] = sc["ingest_lag_max"]
        out["ana.cpu.historical_ms_per_query"] = ms({"historical"}) / ops
        out["ana.cpu.realtime_ms_per_s"] = ms({"realtime"}) / phase["seconds"]
        out["ana.cpu.broker_ms_per_query"] = ms({"broker"}) / ops
    out["gen.late_ms_max"] = sc.get("gen_late_ms_max", 0.0)
    base, tr = figures(untraced), figures(traced)
    out["p50_run_ms"] = base["p50_run_ms"][0]
    out["tail_ms"] = base["tail_ms"][0]
    out["ops_per_s"] = base["ops_per_s"][0]
    up = untraced["phase"]
    out["host.steal_pct"] = 100.0 * up["host_steal_ticks"] / max(
        1, up["host_total_ticks"])
    out["samples"] = completed_ops(untraced)
    out["trace.overhead_p50_pct"] = 100.0 * (
        tr["p50_ms"][0] / base["p50_ms"][0] - 1)
    out["trace.overhead_ops_pct"] = 100.0 * (
        1 - tr["ops_per_s"][0] / base["ops_per_s"][0])
    return {name: (value, PER_LAYER[name]) for name, value in out.items()}


def tally(records):
    attempted = sum(int(r["attempted"]) for r in records)
    failed = sum(int(r["failed"]) for r in records)
    wrong = any(reason.endswith(WRONG_OUTPUT)
                for r in records for reason in r["failures"])
    for r in records:
        for reason, n in sorted(r["failures"].items()):
            log("%s: %d failed operation(s): %s" % (r["workload"], n, reason))
    return {"correct": not wrong and attempted >= 1, "attempted": attempted,
            "failed": failed}


def result_line(summary, metrics):
    out = dict(summary)
    out["metrics"] = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}
    return json.dumps(out)


# --- entry points ------------------------------------------------------------

def measure(driver, node_bin, workload, seed, seconds, trace, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        rec = run_driver(driver, node_bin, common + [
            "--seconds", str(seconds), "--setups", str(SETUPS)], deadline)
        return tally([rec]), end_to_end(rec)
    # Per-layer numbers carry no bound: two half-length phases keep a
    # traced run as long as an untraced one.
    common += ["--seconds", str(max(1.0, seconds / 2))]
    untraced = run_driver(driver, node_bin, common, deadline)
    traced = run_driver(driver, node_bin, common + ["--traced"], deadline)
    return tally([untraced, traced]), per_layer(untraced, traced)


def smoke(driver, node_bin, seed):
    ok = True
    for workload in WORKLOADS:
        deadline = time.monotonic() + RUN_BUDGET_S
        common = ["--workload", workload, "--seed", str(seed), "--seconds",
                  str(SMOKE_SECONDS), "--smoke"]
        untraced = run_driver(driver, node_bin, common, deadline)
        traced = run_driver(driver, node_bin, common + ["--traced"], deadline)
        summary = tally([untraced, traced])
        e2e = figures(untraced)
        layers = per_layer(untraced, traced)
        log("smoke %s: %s p50_ms=%.2f layers=%d" % (
            workload, summary, e2e["p50_ms"][0], len(layers)))
        ok = ok and summary["correct"] and summary["failed"] == 0
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy sizes, checks on")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    def on_signal(signum, _frame):
        raise RunError("interrupted by signal %d" % signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        driver, node_bin = build()
        leftovers = live_nodes(node_bin)
        if leftovers:
            raise RunError("dpss_node from an earlier run still alive: %s"
                           % leftovers)
        if args.smoke:
            return smoke(driver, node_bin, args.seed)
        deadline = time.monotonic() + RUN_BUDGET_S
        summary, metrics = measure(driver, node_bin, args.workload, args.seed,
                                   args.seconds, args.trace, deadline)
    except Exception as e:  # every failure: no result line, exit 1
        log("run failed: %s: %s" % (type(e).__name__, e))
        return 1
    print(result_line(summary, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
