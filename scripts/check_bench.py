#!/usr/bin/env python3
"""Bench smoke gate: re-runs one bench and checks it against its seeded
baseline.

Each bench has one spec below. A gate runs `<bench> --quick` and parses
its JSON stdout (or runs the spec's own command and parses the JSON on
the last line of its stdout), and then checks, in order:

  - structural keys: must exist and be positive (shape only)
  - ratios vs baseline: a within-run speedup ratio may not fall more than
    --tolerance below the baseline's (ratios are stable across machines;
    absolute times are not, so those are never gated)
  - invariants: deterministic properties of the code under test, held by
    the fresh run AND by the baseline (a baseline regenerated from a
    broken build would otherwise gate nothing)
  - baseline comparisons: scale-independent figures the quick run must
    share with the full baseline run
  - ceilings: seed-pure counters that may fall freely but may rise only
    together with the baseline file, compared exactly

Benches:
  pss        bench_pss_hotpath vs BENCH_pss.json: g=n+1 encrypt and CRT
             decrypt speedups.
  rebalance  bench_rebalance vs BENCH_rebalance.json: the coordinator's
             reconcile loop places every segment, respects the per-cycle
             move budget, converges, moves close to the ideal count on
             scale-out (no thrashing) and drains without losing a copy.
  subs       bench_subscriptions vs BENCH_subs.json: every document folds
             into every subscription, seals follow the fill threshold,
             the feed recovers every match, and fold throughput stays
             flat as subscriptions fan out.
  e2e        perfbench/run.py pss_oneshot, seed 42, --trace 1, on the real
             multi-process cluster vs BENCH_e2e.json: every query correct,
             no failed operation, the historicals' encryptions per query
             (buffer arming) never above the baseline, and the named
             layers cover at least 90% of each query.

Usage:
    scripts/check_bench.py {e2e,pss,rebalance,subs} [--bench PATH]
        [--baseline PATH] [--tolerance 0.30] [--thrash-tolerance 0.25]
        [--flatness 4.0]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


def lookup(doc: dict, path: tuple) -> float:
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            raise KeyError(".".join(path))
        node = node[key]
    if not isinstance(node, (int, float)):
        raise KeyError(".".join(path) + " is not numeric")
    return float(node)


class Gate:
    """Counts failures and prints one OK/FAIL line per check."""

    def __init__(self) -> None:
        self.failures = 0

    def check(self, ok: bool, name: str, detail: str) -> None:
        print(f"{'OK' if ok else 'FAIL'}: {name}: {detail}")
        if not ok:
            self.failures += 1


# --- invariants: fn(gate, doc, label, args) --------------------------------


def rebalance_invariants(g: Gate, doc: dict, label: str, args) -> None:
    segments = lookup(doc, ("segments",))
    served = lookup(doc, ("placement", "served"))
    g.check(served == segments, f"{label}: placement covers every segment",
            f"served {served:.0f} of {segments:.0f}")

    budget = lookup(doc, ("max_moves_per_cycle",))
    worst = lookup(doc, ("rebalance", "max_moves_in_one_cycle"))
    g.check(worst <= budget, f"{label}: per-cycle move budget respected",
            f"worst cycle issued {worst:.0f} (budget {budget:.0f})")

    spread = lookup(doc, ("rebalance", "final_spread"))
    g.check(spread <= 1,
            f"{label}: rebalance converges to the imbalance threshold",
            f"final spread {spread:.0f}")

    final = lookup(doc, ("nodes_final",))
    ideal = segments * (final - lookup(doc, ("nodes_initial",))) / final
    moves = lookup(doc, ("rebalance", "moves_total"))
    low = ideal * (1.0 - args.thrash_tolerance)
    high = ideal * (1.0 + args.thrash_tolerance)
    g.check(low <= moves <= high,
            f"{label}: scale-out moves close to ideal (no thrashing)",
            f"{moves:.0f} moves for ideal {ideal:.0f} "
            f"(band {low:.0f}..{high:.0f})")

    left = lookup(doc, ("drain", "drained_still_serving"))
    g.check(left == 0, f"{label}: drained nodes end up serving nothing",
            f"{left:.0f} left")
    served = lookup(doc, ("drain", "served"))
    g.check(served == segments,
            f"{label}: drain preserves every copy (load-before-drop)",
            f"served {served:.0f} of {segments:.0f}")


def e2e_invariants(g: Gate, doc: dict, label: str, args) -> None:
    g.check(doc.get("correct") is True, f"{label}: every query correct",
            f"correct={doc.get('correct')}")
    g.check(doc.get("failed") == 0, f"{label}: no failed operation",
            f"{doc.get('failed')} of {doc.get('attempted')} failed")
    coverage = lookup(doc, ("metrics", "pss.layer_coverage", "value"))
    g.check(coverage >= 0.9, f"{label}: named layers cover the query",
            f"pss.layer_coverage {coverage:.3f} (floor 0.9)")


def subs_invariants(g: Gate, doc: dict, label: str, args) -> None:
    docs = doc.get("documents_per_point", 0)
    max_docs = doc.get("max_documents_per_snapshot", 0)
    points = doc.get("points", [])
    g.check(docs > 0 and max_docs > 0 and len(points) >= 2,
            f"{label}: document shape",
            f"{len(points)} points, {docs} docs, fill threshold {max_docs}")
    if docs <= 0 or max_docs <= 0 or len(points) < 2:
        return

    fills = docs // max_docs
    remainder = 1 if docs % max_docs else 0
    for p in points:
        subs = p.get("subscriptions", 0)
        g.check(p.get("folds") == subs * docs,
                f"{label}: every document folded into every subscription",
                f"{p.get('folds')} folds for {subs} subs x {docs} docs")
        g.check(p.get("fill_snapshots") == subs * fills,
                f"{label}: fill-threshold seals match the policy",
                f"{p.get('fill_snapshots')} for {subs} subs x {fills}")
        g.check(p.get("drain_snapshots") == subs * remainder,
                f"{label}: commit barrier seals exactly the partial batches",
                f"{p.get('drain_snapshots')} for {subs} subs x {remainder}")
        g.check(p.get("recovered") == p.get("expected_matches")
                and p.get("expected_matches", 0) > 0,
                f"{label}: feed recovers every expected match",
                f"recovered {p.get('recovered')} of "
                f"{p.get('expected_matches')}")
        g.check(p.get("duplicates_dropped") == 0,
                f"{label}: no duplicate deliveries in a clean run",
                f"{p.get('duplicates_dropped')} dropped")

    # Same-run, same-machine ratio: per-subscription fold cost must not
    # blow up with fan-out. The band is deliberately loose (timing), but a
    # matcher that went quadratic in the subscription count fails it.
    lo, hi = points[0], points[-1]
    if lo.get("folds_per_s", 0) > 0 and hi.get("folds_per_s", 0) > 0:
        ratio = lo["folds_per_s"] / hi["folds_per_s"]
        g.check(ratio <= args.flatness,
                f"{label}: fold throughput flat across fan-out",
                f"{lo['folds_per_s']:.0f}/s at {lo['subscriptions']} subs vs "
                f"{hi['folds_per_s']:.0f}/s at {hi['subscriptions']} subs "
                f"(ratio {ratio:.2f}, limit {args.flatness})")
    else:
        g.check(False, f"{label}: fold throughput measured",
                "folds_per_s missing or 0")


# --- scale-independent figures shared with the baseline --------------------


def moves_per_segment(doc: dict) -> float:
    return (lookup(doc, ("rebalance", "moves_total"))
            / lookup(doc, ("segments",)))


def match_fraction(doc: dict) -> float:
    return doc["points"][0]["expected_matches"] / doc["documents_per_point"]


def snaps_per_sub(doc: dict) -> float:
    p = doc["points"][-1]
    return (p["fill_snapshots"] + p["drain_snapshots"]) / p["subscriptions"]


# One spec per bench. "ratios" are (json path, name); "comparisons" are
# (name, fn(doc) -> float, max |current - baseline|).
SPECS: dict[str, dict] = {
    "e2e": {
        "command": ["python3", "perfbench/run.py", "--workload",
                    "pss_oneshot", "--seed", "42", "--seconds", "4",
                    "--trace", "1"],
        "baseline": "BENCH_e2e.json",
        "structural": [
            ("metrics", "pss.traced_queries", "value"),
            ("metrics", "pss.server_encrypts_per_query", "value"),
        ],
        "invariants": e2e_invariants,
        "ceilings": [
            (("metrics", "pss.server_encrypts_per_query", "value"),
             "historical encryptions per query"),
        ],
    },
    "pss": {
        "bench": "build/bench/bench_pss_hotpath",
        "baseline": "BENCH_pss.json",
        "structural": [
            ("encrypt", "fast_us"),
            ("encrypt", "generic_us"),
            ("decrypt", "batch_us_per_ct"),
            ("session", "docs_per_s_pack1"),
            ("session", "docs_per_s_pack3"),
        ],
        "ratios": [
            (("encrypt", "fast_speedup"),
             "g=n+1 encrypt vs generic reference"),
            (("decrypt", "crt_speedup"), "CRT decrypt vs standard"),
        ],
    },
    "rebalance": {
        "bench": "build/bench/bench_rebalance",
        "baseline": "BENCH_rebalance.json",
        "structural": [
            ("segments",),
            ("nodes_initial",),
            ("nodes_final",),
            ("max_moves_per_cycle",),
            ("placement", "cycles"),
            ("placement", "served"),
            ("rebalance", "cycles"),
            ("rebalance", "moves_total"),
            ("drain", "cycles"),
            ("drain", "served"),
        ],
        "invariants": rebalance_invariants,
        "comparisons": [("moves-per-segment", moves_per_segment, 0.05)],
    },
    "subs": {
        "bench": "build/bench/bench_subscriptions",
        "baseline": "BENCH_subs.json",
        "invariants": subs_invariants,
        "comparisons": [
            ("match fraction", match_fraction, 0.0),
            ("snapshots per subscription", snaps_per_sub, 0.0),
        ],
    },
}


def run_gate(spec: dict, current: dict, baseline: dict, args) -> int:
    g = Gate()
    for path in spec.get("structural", []):
        try:
            value = lookup(current, path)
        except KeyError as err:
            g.check(False, "bench output", f"missing {err}")
            continue
        if value <= 0:
            g.check(False, ".".join(path), f"{value} (must be positive)")
    # Invariants read the structural keys; stop before they raise.
    if g.failures:
        return g.failures

    for path, name in spec.get("ratios", []):
        try:
            base = lookup(baseline, path)
            cur = lookup(current, path)
        except KeyError as err:
            g.check(False, name, f"missing gated ratio {err}")
            continue
        floor = base * (1.0 - args.tolerance)
        g.check(cur >= floor, name,
                f"{cur:.2f}x (baseline {base:.2f}x, floor {floor:.2f}x)")

    invariants = spec.get("invariants")
    if invariants is not None:
        invariants(g, current, "quick", args)
        invariants(g, baseline, "baseline", args)

    for name, fn, slack in spec.get("comparisons", []):
        try:
            cur, base = fn(current), fn(baseline)
        except (KeyError, IndexError, ZeroDivisionError) as err:
            g.check(False, name, f"not computable: {err!r}")
            continue
        g.check(abs(cur - base) <= slack, f"{name} matches baseline",
                f"{cur:.3f} vs {base:.3f}")

    for path, name in spec.get("ceilings", []):
        try:
            base = lookup(baseline, path)
            cur = lookup(current, path)
        except KeyError as err:
            g.check(False, name, f"missing gated counter {err}")
            continue
        g.check(cur <= base, f"{name} not above baseline",
                f"{cur:g} (baseline {base:g}; a rise must update "
                f"{spec['baseline']} in the same change)")
    return g.failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=sorted(SPECS))
    parser.add_argument("--bench", help="bench binary (default per spec)")
    parser.add_argument("--baseline", help="baseline JSON (default per spec)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="max fractional drop of a gated ratio")
    parser.add_argument("--thrash-tolerance", type=float, default=0.25,
                        help="rebalance: band around the ideal move count")
    parser.add_argument("--flatness", type=float, default=4.0,
                        help="subs: max slowdown of folds/s at the largest "
                             "sweep point vs the smallest")
    args = parser.parse_args()
    spec = SPECS[args.name]

    with open(args.baseline or spec["baseline"], encoding="utf-8") as fh:
        baseline = json.load(fh)

    command = spec.get("command") or [args.bench or spec["bench"], "--quick"]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        print(f"FAIL: bench exited {proc.returncode}")
        return 1
    text = proc.stdout
    if spec.get("command") is not None and text.strip():
        # perfbench logs to stderr; its result is the last stdout line.
        text = text.strip().splitlines()[-1]
    try:
        current = json.loads(text)
    except json.JSONDecodeError as err:
        print(proc.stdout)
        print(f"FAIL: bench stdout is not valid JSON: {err}")
        return 1

    failures = run_gate(spec, current, baseline, args)
    if failures:
        print(f"{failures} bench gate failure(s)")
        return 1
    print("bench gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
