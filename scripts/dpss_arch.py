#!/usr/bin/env python3
"""dpss-arch: enforce the source tree's layer DAG and include hygiene.

Six PRs of growth left the architecture implicit; this checker makes it
a declared, machine-enforced contract. The layers under src/ and the
edges each may depend on (includes point DOWN the DAG, never up or
sideways against it):

    common   -> (nothing)          primitives: bytes, rng, clock, errors
    obs      -> common             metrics, tracing, query log
    crypto   -> common, obs        bigint, Paillier, sensitive types
    storage  -> common, obs        segments, bitmaps, deep storage
    pss      -> common, obs, crypto           the search scheme itself
    query    -> common, obs, storage          SQL/scan engine
    cluster  -> everything above              node roles, registry, RPC
    net      -> everything above + cluster    TCP transport, node binary

Checks, all hard errors:

  unknown-layer    -- a file lives under src/<dir>/ for a <dir> not in
                      the declared DAG (new layers are added HERE, with
                      their allowed edges, not by accident).
  layer-violation  -- an #include crosses an edge the DAG does not
                      declare (e.g. crypto including pss/).
  include-cycle    -- the file-level include graph has a cycle. The DAG
                      makes cross-layer cycles impossible; this catches
                      same-layer header cycles too.
  internal-header  -- a header carrying a "// dpss-arch: internal"
                      marker is included from outside its own layer.
                      Layer-public headers need no marker; marking the
                      implementation-detail ones keeps each layer's
                      public surface explicit and small.
  unreached-header -- a src/ header that no translation unit outside
                      tests/ includes, directly or through other
                      headers (its own .cc does not count; TUs in src/,
                      bench/, perfbench/ and examples/ do). Library code
                      that only its own tests reach is dead weight; a
                      header that exists for the in-process test harness
                      says so with a "// dpss-arch: test-harness" marker.
  untracked-tu     -- with --compile-commands: a src/ .cc file missing
                      from compile_commands.json, i.e. not built by any
                      CMakeLists — code that silently escapes -Werror,
                      the sanitizers and every other gate.

Usage:
    scripts/dpss_arch.py [--root DIR] [--compile-commands FILE]
    scripts/dpss_arch.py --selftest

The include graph is built from quote-includes resolved against src/
(the repo's one include root; compile_commands.json, when given, is
used for the untracked-tu coverage check). --selftest runs the analyzer
over in-memory trees with a seeded cycle, a seeded layer violation and
friends — wired into ctest as `dpss_arch_selftest`, next to
`dpss_arch_tree` which runs the real src/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

# The declared architecture. A new layer (or a new edge) is a deliberate
# one-line change here, reviewed as such.
LAYER_DEPS = {
    "common": frozenset(),
    "obs": frozenset({"common"}),
    "crypto": frozenset({"common", "obs"}),
    "storage": frozenset({"common", "obs"}),
    "pss": frozenset({"common", "obs", "crypto"}),
    "query": frozenset({"common", "obs", "storage"}),
    "cluster": frozenset(
        {"common", "obs", "crypto", "storage", "pss", "query"}
    ),
    "net": frozenset(
        {"common", "obs", "crypto", "storage", "pss", "query", "cluster"}
    ),
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
INTERNAL_RE = re.compile(r"//\s*dpss-arch:\s*internal\b")
TEST_HARNESS_RE = re.compile(r"//\s*dpss-arch:\s*test-harness\b")

# Trees whose files may include src/ headers. src/ is the layered
# library; the others only consume it. tests/ is deliberately absent: a
# header reached from tests alone is not reached by any program.
SOURCE_DIRS = ("src", "bench", "perfbench", "examples")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def layer_of(relpath: str) -> str | None:
    """src/pss/blocking.h -> "pss"; None for files not under src/."""
    parts = relpath.split("/")
    if len(parts) < 3 or parts[0] != "src":
        return None
    return parts[1]


def parse_includes(text: str):
    """Yields (1-based line, include path) for every quote-include."""
    for i, line in enumerate(text.splitlines(), start=1):
        m = INCLUDE_RE.match(line)
        if m:
            yield i, m.group(1)


class Analyzer:
    """Runs every check over an in-memory {relpath: text} tree, so the
    selftest can seed violations without touching the filesystem."""

    def __init__(self, files: dict):
        self.files = files
        self.findings: list = []
        # file -> [(line, resolved include relpath)]
        self.edges: dict = {}

    def resolve(self, include: str) -> str | None:
        """Quote-includes resolve against src/ (the repo's include
        root). Unresolvable paths are system/third-party headers."""
        candidate = "src/" + include
        return candidate if candidate in self.files else None

    def run(self) -> list:
        for relpath in sorted(self.files):
            self.check_file(relpath)
        self.check_cycles()
        self.check_internal_headers()
        self.check_unreached_headers()
        return self.findings

    def check_file(self, relpath: str):
        layer = layer_of(relpath)
        if layer is None:
            return  # not under src/; nothing to pin
        if layer not in LAYER_DEPS:
            self.findings.append(
                Finding(
                    relpath,
                    1,
                    "unknown-layer",
                    f'directory "src/{layer}/" is not a declared layer; '
                    "add it (and its allowed edges) to LAYER_DEPS in "
                    "scripts/dpss_arch.py",
                )
            )
            return
        edges = []
        for line, include in parse_includes(self.files[relpath]):
            target = self.resolve(include)
            if target is None:
                continue
            edges.append((line, target))
            target_layer = layer_of(target)
            if target_layer is None or target_layer == layer:
                continue
            if target_layer not in LAYER_DEPS.get(layer, frozenset()):
                self.findings.append(
                    Finding(
                        relpath,
                        line,
                        "layer-violation",
                        f'layer "{layer}" must not include "{include}" '
                        f'(layer "{target_layer}"); allowed: '
                        f"{sorted(LAYER_DEPS[layer]) or 'none'}",
                    )
                )
        self.edges[relpath] = edges

    def check_cycles(self):
        """Iterative Tarjan SCC over the file-level include graph; any
        component with more than one file (or a self-include) is a
        cycle. Reported once per component, on its first file."""
        graph = {
            path: [t for (_line, t) in edges if t in self.edges]
            for path, edges in self.edges.items()
        }
        index: dict = {}
        lowlink: dict = {}
        on_stack: set = set()
        stack: list = []
        counter = [0]
        sccs = []

        for start in sorted(graph):
            if start in index:
                continue
            work = [(start, iter(graph[start]))]
            index[start] = lowlink[start] = counter[0]
            counter[0] += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(graph[succ])))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(sorted(component))

        for component in sccs:
            is_cycle = len(component) > 1 or any(
                member in graph[member] for member in component
            )
            if is_cycle:
                self.findings.append(
                    Finding(
                        component[0],
                        1,
                        "include-cycle",
                        "include cycle: " + " -> ".join(component),
                    )
                )

    def check_internal_headers(self):
        internal = {
            path
            for path, text in self.files.items()
            if path.endswith(".h") and INTERNAL_RE.search(text)
        }
        if not internal:
            return
        for relpath, edges in sorted(self.edges.items()):
            layer = layer_of(relpath)
            for line, target in edges:
                if target in internal and layer_of(target) != layer:
                    self.findings.append(
                        Finding(
                            relpath,
                            line,
                            "internal-header",
                            f"{target} is marked dpss-arch: internal; "
                            f'only layer "{layer_of(target)}" may '
                            "include it",
                        )
                    )

    def check_unreached_headers(self):
        """Every src/ header must be reached from some TU other than its
        own .cc. Roots are the src/ .cc files plus every file outside
        src/ (bench/perfbench/examples headers and sources alike)."""
        includes = {
            path: [
                t
                for t in (self.resolve(inc) for _l, inc in parse_includes(text))
                if t is not None
            ]
            for path, text in self.files.items()
        }
        reached: set = set()
        for root in sorted(self.files):
            if root.split("/")[0] not in SOURCE_DIRS:
                continue  # tests/ reaching a header does not count
            if layer_of(root) is not None and not root.endswith(".cc"):
                continue
            own = root[: -len(".cc")] + ".h" if root.endswith(".cc") else None
            seen = {own}
            todo = [t for t in includes[root] if t not in seen]
            while todo:
                header = todo.pop()
                if header in seen:
                    continue
                seen.add(header)
                reached.add(header)
                todo.extend(t for t in includes.get(header, []) if t not in seen)
        for path, text in sorted(self.files.items()):
            if (
                layer_of(path) is None
                or not path.endswith(".h")
                or path in reached
                or TEST_HARNESS_RE.search(text)
            ):
                continue
            self.findings.append(
                Finding(
                    path,
                    1,
                    "unreached-header",
                    "no translation unit outside tests/ includes this "
                    "header (its own .cc does not count); delete the "
                    "module, or mark it // dpss-arch: test-harness if it "
                    "exists for the in-process test harness",
                )
            )

    def classification(self) -> dict:
        """Per-header public/internal classification: a header is
        internal when marked, public otherwise."""
        return {
            path: (
                "internal" if INTERNAL_RE.search(text) else "public"
            )
            for path, text in sorted(self.files.items())
            if path.endswith(".h")
        }


def load_tree(root: str) -> dict:
    files = {}
    for top in SOURCE_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".cpp")):
                    continue
                full = os.path.join(dirpath, name)
                relpath = os.path.relpath(full, root).replace(os.sep, "/")
                with open(full, encoding="utf-8") as fh:
                    files[relpath] = fh.read()
    return files


def check_compile_db(root: str, db_path: str, files: dict) -> list:
    """Every src/ .cc must be built by some CMake target: a TU missing
    from compile_commands.json escapes -Werror and every sanitizer."""
    with open(db_path, encoding="utf-8") as fh:
        entries = json.load(fh)
    tracked = set()
    for entry in entries:
        full = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"])
        )
        tracked.add(os.path.relpath(full, root).replace(os.sep, "/"))
    findings = []
    for relpath in sorted(files):
        if layer_of(relpath) is None:
            continue  # perfbench/ has its own build; bench/ is not layered
        if relpath.endswith(".cc") and relpath not in tracked:
            findings.append(
                Finding(
                    relpath,
                    1,
                    "untracked-tu",
                    "not in compile_commands.json — this TU is built by "
                    "no CMake target and escapes -Werror/sanitizers",
                )
            )
    return findings


# --- selftest -------------------------------------------------------------

CLEAN_TREE = {
    "src/common/bytes.h": "#pragma once\n",
    "src/obs/metrics.h": '#include "common/bytes.h"\n',
    "src/crypto/paillier.h": '#include "obs/metrics.h"\n',
    "src/pss/searcher.h": '#include "crypto/paillier.h"\n',
    "src/pss/searcher.cc": '#include "pss/searcher.h"\n',
    "src/cluster/broker.cc": '#include "pss/searcher.h"\n',
    "src/net/server.cc": '#include "cluster/broker.cc"\n',
}

SELFTEST_CASES = [
    # (name, expected rule set, tree)
    ("clean", set(), CLEAN_TREE),
    (
        "seeded-layer-violation",  # crypto reaching UP into pss
        {"layer-violation"},
        {
            **CLEAN_TREE,
            "src/crypto/bad.cc": '#include "pss/searcher.h"\n',
        },
    ),
    (
        "seeded-cycle",
        {"include-cycle"},
        {
            **CLEAN_TREE,
            "src/pss/a.h": '#include "pss/b.h"\n',
            "src/pss/b.h": '#include "pss/a.h"\n',
            "src/pss/user.cc": '#include "pss/a.h"\n',
        },
    ),
    (
        "self-include-cycle",
        {"include-cycle"},
        {
            **CLEAN_TREE,
            "src/pss/self.h": '#include "pss/self.h"\n',
            "src/pss/user.cc": '#include "pss/self.h"\n',
        },
    ),
    (
        "unknown-layer",
        {"unknown-layer"},
        {**CLEAN_TREE, "src/gateway/front.cc": "int x;\n"},
    ),
    (
        "internal-header-crossing",
        {"internal-header"},
        {
            **CLEAN_TREE,
            "src/storage/detail.h": "// dpss-arch: internal\n",
            "src/query/engine.cc": '#include "storage/detail.h"\n',
        },
    ),
    (
        "internal-header-same-layer-ok",
        set(),
        {
            **CLEAN_TREE,
            "src/storage/detail.h": "// dpss-arch: internal\n",
            "src/storage/segment.cc": '#include "storage/detail.h"\n',
        },
    ),
    (
        "sideways-violation",  # storage and crypto are siblings
        {"layer-violation"},
        {
            **CLEAN_TREE,
            "src/storage/bad.cc": '#include "crypto/paillier.h"\n',
        },
    ),
    (
        "system-includes-ignored",
        set(),
        {**CLEAN_TREE, "src/common/x.cc": "#include <vector>\n"},
    ),
    (
        "unreached-header",  # only its own .cc and tests include it
        {"unreached-header"},
        {
            **CLEAN_TREE,
            "src/storage/orphan.h": '#include "common/bytes.h"\n',
            "src/storage/orphan.cc": '#include "storage/orphan.h"\n',
            "tests/storage/orphan_test.cc": '#include "storage/orphan.h"\n',
        },
    ),
    (
        "unreached-header-behind-unreached-header",
        {"unreached-header"},
        {
            **CLEAN_TREE,
            "src/storage/orphan.h": '#include "storage/detail.h"\n',
            "src/storage/orphan.cc": '#include "storage/orphan.h"\n',
            "src/storage/detail.h": "#pragma once\n",
        },
    ),
    (
        "test-harness-marker",
        set(),
        {
            **CLEAN_TREE,
            "src/cluster/harness.h": "// dpss-arch: test-harness\n",
            "src/cluster/harness.cc": '#include "cluster/harness.h"\n',
        },
    ),
    (
        "reached-from-bench",
        set(),
        {
            **CLEAN_TREE,
            "src/storage/tool.h": "#pragma once\n",
            "bench/bench_tool.cc": '#include "storage/tool.h"\n',
        },
    ),
]


def selftest() -> int:
    failures = 0
    for name, expected, tree in SELFTEST_CASES:
        found = {f.rule for f in Analyzer(dict(tree)).run()}
        if found != expected:
            print(
                f"selftest FAIL: {name}: expected "
                f"{sorted(expected) or 'clean'}, found "
                f"{sorted(found) or 'clean'}"
            )
            failures += 1
    # The classification surface: marked headers are internal.
    tree = {
        **CLEAN_TREE,
        "src/storage/detail.h": "// dpss-arch: internal\n",
    }
    cls = Analyzer(dict(tree)).classification()
    if cls.get("src/storage/detail.h") != "internal" or (
        cls.get("src/common/bytes.h") != "public"
    ):
        print(f"selftest FAIL: classification wrong: {cls}")
        failures += 1
    if failures == 0:
        print(f"selftest OK ({len(SELFTEST_CASES)} trees)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the checkout containing scripts/)",
    )
    parser.add_argument(
        "--compile-commands",
        metavar="FILE",
        help="compile_commands.json for the untracked-tu coverage check "
        "(default: <root>/build/compile_commands.json when present)",
    )
    parser.add_argument(
        "--no-compile-commands",
        action="store_true",
        help="skip the compile_commands coverage check (for pre-build runs "
        "where build/ may hold a stale database)",
    )
    parser.add_argument(
        "--classify",
        action="store_true",
        help="print the per-header public/internal classification",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the analyzer over seeded in-memory trees and exit",
    )
    args = parser.parse_args()

    if args.selftest:
        return selftest()

    files = load_tree(args.root)
    analyzer = Analyzer(files)
    findings = analyzer.run()

    db_path = args.compile_commands or os.path.join(
        args.root, "build", "compile_commands.json"
    )
    db_checked = not args.no_compile_commands and os.path.exists(db_path)
    if db_checked:
        findings.extend(check_compile_db(args.root, db_path, files))

    if args.classify:
        for path, kind in analyzer.classification().items():
            print(f"{kind:8} {path}")

    for f in findings:
        print(f.render())
    if findings:
        print(f"dpss-arch: {len(findings)} violation(s) in {len(files)} files")
        return 1
    suffix = "with" if db_checked else "without"
    print(
        f"dpss-arch: OK ({len(files)} files, "
        f"{sum(len(e) for e in analyzer.edges.values())} include edges, "
        f"{suffix} compile_commands coverage)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
