#!/usr/bin/env python3
"""dpss-lint: enforce the repo's determinism and layering invariants.

The cluster's tests replay seeded chaos schedules against a virtual clock,
so determinism is a load-bearing property, not a style preference. These
rules keep the accidental escape hatches shut:

  wall-clock   -- no std::this_thread::sleep_for / system_clock::now /
                  steady_clock::now outside common/clock.* (the Clock
                  abstraction) and explicitly allowed measurement sites.
  rng          -- no std::random_device / rand() / srand() outside
                  common/rng.* (the seeded Rng abstraction).
  transport-call -- no direct Transport::call; every RPC goes through
                  callWithPolicy (cluster/rpc_policy.cc) so retry,
                  backoff and deadline policy is never bypassed.
  control-channel -- no hand-rolled control frames (control_op::
                  opcodes, controlNode() addressing) outside
                  net/control.*; membership verbs — decommission,
                  drain state, shutdown — go through the control*
                  client helpers so every send carries retry/deadline
                  policy and one wire format.
  metric-name  -- obs::intern{Counter,Gauge,Histogram} names are
                  lowercase dotted identifiers ("a.b.c"), so exposition
                  renders a stable, greppable namespace.
  metric-label -- label VALUES at intern* call sites must be string
                  literals or pass through obs::boundedLabelValue();
                  interning an unbounded value (node names from input,
                  request paths) grows the metric table until the
                  kMaxMetrics DPSS_CHECK aborts the process.
  raw-socket   -- no raw socket/poll/epoll syscalls (or their headers)
                  outside src/net/; every other layer speaks through the
                  net transport so framing, deadlines, and typed error
                  mapping live in one place.
  raw-modexp   -- no powm/powmNaive/mpz_powm use inside src/pss/; the
                  search layer speaks crypto::Paillier* (encrypt,
                  mulPlain, decryptCrtBatch), whose kernels are pinned
                  by the differential suite and the KAT goldens.
  chaos-api    -- no ad-hoc fault injection (node .crash(), deprecated
                  failNextGets) in src/ outside the chaos scheduler;
                  faults must come from a seeded, replayable schedule
                  (cluster/chaos_scheduler.h). Tests are never walked,
                  so targeted regression tests stay free to crash nodes
                  directly.
  plaintext-release -- the PlaintextBytes escape hatch
                  (releaseForClientReconstruction, crypto/sensitive.h)
                  is confined to the client reconstruction sites:
                  pss/session.cc and cluster/pss_client.cc. Everywhere
                  else in src/, decrypted matched documents stay inside
                  the privacy type.
  secret-memcpy -- no memcpy/memset/memmove over SecretScalar (or any
                  Secret*-named) storage outside src/crypto/; byte-level
                  access to key material bypasses the scrubbing dtor and
                  the audited serialize() path.
  subscription-match -- standing-query matching has exactly one entry
                  point: SubscriptionMatcher, confined to the
                  subscription.* files (pss/subscription.* and its owner
                  cluster/subscription_host.*). Everything else feeds
                  documents through SubscriptionHost::onDocument. The
                  seed's deleted StandingSearch stub must not come back
                  under either name.

A violation can be waived inline with a justification:

    // dpss-lint: allow(wall-clock) log timestamps are cosmetic.

The comment may sit on the offending line or on the contiguous comment
block immediately above it. An allow comment with no justification text
is itself an error.

Usage:
    scripts/dpss_lint.py [--root DIR] [--selftest] [PATHS...]

With no PATHS, lints every .h/.cc file under src/. Exits non-zero when
any violation is found. --selftest runs the rule engine against built-in
positive/negative samples (wired into ctest as `dpss_lint_selftest`).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Rule:
    name: str
    pattern: re.Pattern
    message: str
    # Files (repo-relative, forward slashes) exempt from the rule.
    exempt_files: frozenset = frozenset()
    # Directory prefixes (repo-relative, trailing slash) exempt wholesale.
    exempt_dirs: frozenset = frozenset()
    # When non-empty, the rule applies ONLY under these directory
    # prefixes (repo-relative, trailing slash) — for layer-local
    # invariants like raw-modexp, which bans a spelling in src/pss/ that
    # is the whole point of src/crypto/.
    only_dirs: frozenset = frozenset()

    def exempts(self, relpath: str) -> bool:
        if self.only_dirs and not any(
            relpath.startswith(d) for d in self.only_dirs
        ):
            return True
        return relpath in self.exempt_files or any(
            relpath.startswith(d) for d in self.exempt_dirs
        )


# common/clock.* implements the Clock abstraction over the real clock;
# common/thread_pool and thread_annotations never touch time.
WALL_CLOCK_EXEMPT = frozenset(
    {
        "src/common/clock.h",
        "src/common/clock.cc",
    }
)

# common/rng.* implements the seeded generator every caller must use.
RNG_EXEMPT = frozenset(
    {
        "src/common/rng.h",
        "src/common/rng.cc",
    }
)

# rpc_policy.cc is the one client-side site allowed to hit the raw
# transport (it IS the policy layer); transport.cc/h define call().
TRANSPORT_EXEMPT = frozenset(
    {
        "src/cluster/rpc_policy.cc",
        "src/cluster/rpc_policy.h",
        "src/cluster/transport.cc",
        "src/cluster/transport.h",
    }
)

# net/control.* implements both halves of the control channel: the
# handler and the control* client helpers (which route every send
# through callWithPolicy).
CONTROL_CHANNEL_EXEMPT = frozenset(
    {
        "src/net/control.h",
        "src/net/control.cc",
    }
)

# The chaos scheduler is the one sanctioned fault injector; cluster.cc
# implements the lifecycle primitives it drives (restartRealtime must
# crash the old instance), and deep_storage.* declares/defines the
# deprecated failNextGets alias itself.
CHAOS_API_EXEMPT = frozenset(
    {
        "src/cluster/chaos_scheduler.cc",
        "src/cluster/chaos_scheduler.h",
        "src/cluster/cluster.cc",
        "src/storage/deep_storage.cc",
        "src/storage/deep_storage.h",
    }
)

# The privacy boundary's one sanctioned exit: client-side reconstruction
# (session.cc splits pack groups, pss_client.cc drives the distributed
# client) plus the declaration itself. Tests use their fixture
# (tests/pss/plaintext_access.h) and client binaries (examples/, bench/)
# consume results directly — neither is walked by the lint.
PLAINTEXT_RELEASE_EXEMPT = frozenset(
    {
        "src/crypto/sensitive.h",
        "src/pss/session.cc",
        "src/cluster/pss_client.cc",
    }
)

# The subscription plane's matcher and its owner: the only files that
# may name the match entry point. PR 10 folded the seed's streaming.cc
# stub (StandingSearch) into SubscriptionMatcher; the lint keeps both
# spellings from leaking back into other layers.
SUBSCRIPTION_MATCH_EXEMPT = frozenset(
    {
        "src/pss/subscription.h",
        "src/pss/subscription.cc",
        "src/pss/subscription_feed.cc",
        "src/cluster/subscription_host.h",
        "src/cluster/subscription_host.cc",
    }
)

METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

RULES = [
    Rule(
        name="wall-clock",
        pattern=re.compile(
            r"std::this_thread::sleep_for"
            r"|\bsystem_clock::now\s*\("
            r"|\bsteady_clock::now\s*\("
        ),
        message=(
            "wall-clock access outside common/clock.*; take a Clock& so "
            "tests control time (or justify with an allow comment)"
        ),
        exempt_files=WALL_CLOCK_EXEMPT,
    ),
    Rule(
        name="rng",
        pattern=re.compile(r"std::random_device\b|\b(?:s?rand)\s*\(\s*\)"),
        message=(
            "unseeded randomness outside common/rng.*; take an Rng so "
            "runs are replayable from a seed"
        ),
        exempt_files=RNG_EXEMPT,
    ),
    Rule(
        name="transport-call",
        pattern=re.compile(r"\btransport_?\s*[.&]?\s*->?\s*\bcall\s*\("
                           r"|\btransport_\.call\s*\("
                           r"|\btransport\.call\s*\("),
        message=(
            "direct Transport::call bypasses retry/backoff/deadline "
            "policy; route through callWithPolicy (cluster/rpc_policy.h)"
        ),
        exempt_files=TRANSPORT_EXEMPT,
    ),
    Rule(
        name="control-channel",
        # Hand-rolling a control frame requires the control_op:: opcode
        # constants; addressing "<name>.ctl" yourself requires
        # controlNode(). Either spelling outside net/control.* means a
        # raw membership verb is bypassing the policy-wrapped helpers.
        pattern=re.compile(r"\bcontrol_op::\w+|\bcontrolNode\s*\("),
        message=(
            "hand-rolled control-channel send outside net/control.cc; "
            "membership verbs (decommission, drain state, shutdown) go "
            "through the control* client helpers (net/control.h), which "
            "route through callWithPolicy so retry/deadline policy and "
            "the wire format stay in one place"
        ),
        exempt_files=CONTROL_CHANNEL_EXEMPT,
    ),
    Rule(
        name="raw-socket",
        # Header includes are the robust proxy for syscall use (you can't
        # call them without these), plus the distinctive call spellings.
        pattern=re.compile(
            r"#include\s*<(?:sys/socket\.h|sys/epoll\.h|poll\.h"
            r"|netinet/[^>]+|arpa/inet\.h|netdb\.h)>"
            r"|\bepoll_(?:create1?|ctl|wait)\s*\("
            r"|::socket\s*\("
        ),
        message=(
            "raw socket/poll syscalls outside src/net/; go through the "
            "net transport (net/net_transport.h) so framing, deadlines "
            "and typed errors stay in one place"
        ),
        exempt_dirs=frozenset({"src/net/"}),
    ),
    Rule(
        name="raw-modexp",
        pattern=re.compile(
            r"\bpowm(?:Naive)?\s*\(|\bmpz_powm\b"
        ),
        message=(
            "raw modular exponentiation in src/pss/; the search layer "
            "must go through the crypto::Paillier* kernels (encrypt, "
            "mulPlain, decryptCrtBatch) so they and their differential "
            "and KAT coverage stay the only modexp entry points"
        ),
        only_dirs=frozenset({"src/pss/"}),
    ),
    Rule(
        name="chaos-api",
        # No whitespace after the member operator: "word. crash() word"
        # in prose comments must not trip the rule.
        pattern=re.compile(r"(?:\.|->)crash\s*\(|\bfailNextGets\s*\("),
        message=(
            "ad-hoc fault injection outside the chaos scheduler; derive "
            "faults from a seeded schedule (cluster/chaos_scheduler.h) "
            "so one seed replays the whole failure story"
        ),
        exempt_files=CHAOS_API_EXEMPT,
    ),
    Rule(
        name="plaintext-release",
        pattern=re.compile(r"\breleaseForClientReconstruction\s*\("),
        message=(
            "PlaintextBytes escape hatch outside the client "
            "reconstruction sites (pss/session.cc, cluster/pss_client.cc); "
            "decrypted matched documents must stay inside the privacy "
            "type (crypto/sensitive.h)"
        ),
        exempt_files=PLAINTEXT_RELEASE_EXEMPT,
    ),
    Rule(
        name="secret-memcpy",
        # A mem*() call whose argument text names Secret-typed storage.
        pattern=re.compile(
            r"\b(?:memcpy|memset|memmove)\s*\([^;)]*\b[Ss]ecret"
        ),
        message=(
            "byte-level access to SecretScalar storage outside "
            "src/crypto/; key material moves only through the scrubbing "
            "type and the audited PaillierPrivateKey::serialize path"
        ),
        exempt_dirs=frozenset({"src/crypto/"}),
    ),
    Rule(
        name="subscription-match",
        pattern=re.compile(r"\bSubscriptionMatcher\b|\bStandingSearch\b"),
        message=(
            "subscription match entry point outside the subscription.* "
            "files; standing queries are matched only by "
            "SubscriptionMatcher (pss/subscription.h) owned by "
            "SubscriptionHost — feed documents through "
            "SubscriptionHost::onDocument, and never resurrect the "
            "deleted StandingSearch stub"
        ),
        exempt_files=SUBSCRIPTION_MATCH_EXEMPT,
    ),
]

ALLOW_RE = re.compile(r"//\s*dpss-lint:\s*allow\(([a-z-]+)\)\s*(.*)")
COMMENT_LINE_RE = re.compile(r"^\s*(//|\*|/\*)")
INTERN_RE = re.compile(
    r"""\b(?:obs::)?intern(?:Counter|Gauge|Histogram)\s*\(\s*"([^"]*)"""
)
INTERN_CALL_RE = re.compile(
    r"\b(?:obs::)?intern(?:Counter|Gauge|Histogram)\s*\("
)
# One {"key", value} label pair inside an intern* call's argument text.
LABEL_PAIR_RE = re.compile(r'\{\s*"[^"]*"\s*,\s*([^{}]*?)\s*\}')

METRIC_LABEL_MESSAGE = (
    "unbounded metric label value; every distinct value interns a new "
    "series and kMaxMetrics aborts the process — use a string literal "
    "or wrap with obs::boundedLabelValue()"
)


def intern_call_spans(text: str):
    """Yields (offset, argument_text) for every intern* call in `text`,
    with the argument extent found by balancing parentheses (calls and
    boundedLabelValue() wrappers routinely span lines)."""
    for m in INTERN_CALL_RE.finditer(text):
        depth = 1
        i = m.end()
        while i < len(text) and depth > 0:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        yield m.end(), text[m.end() : i - 1]


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str
    snippet: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
            f"    {self.snippet.strip()}"
        )


@dataclass
class FileLint:
    """Per-file rule engine; separable from the filesystem for selftest."""

    relpath: str
    lines: list
    findings: list = field(default_factory=list)

    def allowed_rules_for(self, index: int) -> dict:
        """Rules waived for line `index` (0-based): same-line allow
        comments, plus any in the contiguous comment block above the
        enclosing statement (matches on a wrapped continuation line are
        still covered by a comment above the statement's first line)."""
        allowed = {}
        candidates = [self.lines[index]]
        j = index
        while j > 0:
            prev = self.lines[j - 1].rstrip()
            if (
                not prev
                or prev.endswith((";", "{", "}"))
                or COMMENT_LINE_RE.match(prev)
            ):
                break
            candidates.append(self.lines[j - 1])
            j -= 1
        j -= 1
        while j >= 0 and COMMENT_LINE_RE.match(self.lines[j]):
            candidates.append(self.lines[j])
            j -= 1
        for text in candidates:
            m = ALLOW_RE.search(text)
            if m:
                allowed[m.group(1)] = m.group(2).strip()
        return allowed

    def check(self) -> list:
        for i, line in enumerate(self.lines):
            allowed = self.allowed_rules_for(i)
            for rule in RULES:
                if rule.exempts(self.relpath):
                    continue
                if not rule.pattern.search(line):
                    continue
                if ALLOW_RE.search(line) and rule.name not in allowed:
                    # The match came from the allow comment itself.
                    if not rule.pattern.search(line.split("//")[0]):
                        continue
                if rule.name in allowed:
                    if not allowed[rule.name]:
                        self.findings.append(
                            Finding(
                                self.relpath,
                                i + 1,
                                rule.name,
                                "allow comment needs a justification",
                                line,
                            )
                        )
                    continue
                self.findings.append(
                    Finding(self.relpath, i + 1, rule.name, rule.message, line)
                )
            for m in INTERN_RE.finditer(line):
                name = m.group(1)
                if "metric-name" in allowed:
                    continue
                if not METRIC_NAME_RE.match(name):
                    self.findings.append(
                        Finding(
                            self.relpath,
                            i + 1,
                            "metric-name",
                            f'metric "{name}" is not lowercase dotted '
                            "(expected e.g. broker.query.count)",
                            line,
                        )
                    )
        self.check_metric_labels()
        return self.findings

    def check_metric_labels(self):
        """Whole-file pass (intern* calls span lines): every label value
        must be a string literal or go through boundedLabelValue()."""
        text = "\n".join(self.lines)
        for arg_off, arg_text in intern_call_spans(text):
            for pm in LABEL_PAIR_RE.finditer(arg_text):
                value = pm.group(1).strip()
                if value.startswith('"') or "boundedLabelValue" in value:
                    continue
                index = text.count("\n", 0, arg_off + pm.start(1))
                allowed = self.allowed_rules_for(index)
                if "metric-label" in allowed:
                    if not allowed["metric-label"]:
                        self.findings.append(
                            Finding(
                                self.relpath,
                                index + 1,
                                "metric-label",
                                "allow comment needs a justification",
                                self.lines[index],
                            )
                        )
                    continue
                self.findings.append(
                    Finding(
                        self.relpath,
                        index + 1,
                        "metric-label",
                        METRIC_LABEL_MESSAGE,
                        self.lines[index],
                    )
                )


def lint_file(root: str, relpath: str) -> list:
    with open(os.path.join(root, relpath), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return FileLint(relpath, lines).check()


def source_files(root: str):
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc")):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root).replace(os.sep, "/")


# --- selftest -------------------------------------------------------------

SELFTEST_CASES = [
    # (rule expected in findings or None, relpath, source)
    ("wall-clock", "src/x/a.cc", "auto t = std::chrono::system_clock::now();"),
    ("wall-clock", "src/x/a.cc", "std::this_thread::sleep_for(1ms);"),
    ("wall-clock", "src/x/a.cc", "auto t = steady_clock::now();"),
    (None, "src/common/clock.cc", "auto t = system_clock::now();"),
    (
        None,
        "src/x/a.cc",
        "// dpss-lint: allow(wall-clock) measuring elapsed time only\n"
        "auto t = steady_clock::now();",
    ),
    (
        "wall-clock",
        "src/x/a.cc",
        "// dpss-lint: allow(wall-clock)\nauto t = steady_clock::now();",
    ),  # missing justification
    (
        None,
        "src/x/a.cc",
        "// dpss-lint: allow(wall-clock) timing a span, elapsed only\n"
        "auto t = duration_cast<nanoseconds>(\n"
        "    steady_clock::now().time_since_epoch());",
    ),  # allow covers wrapped continuation lines of the same statement
    ("rng", "src/x/a.cc", "std::random_device rd;"),
    ("rng", "src/x/a.cc", "int r = rand();"),
    (None, "src/common/rng.cc", "std::random_device rd;"),
    ("transport-call", "src/x/a.cc", "auto r = transport_.call(node, req);"),
    ("transport-call", "src/x/a.cc", "auto r = transport.call(node, req);"),
    (None, "src/cluster/rpc_policy.cc", "return transport.call(n, req);"),
    (
        "metric-name",
        "src/x/a.cc",
        'auto id = obs::internCounter("BrokerQueries");',
    ),
    ("metric-name", "src/x/a.cc", 'auto id = obs::internCounter("broker");'),
    (None, "src/x/a.cc", 'auto id = obs::internCounter("broker.query.count");'),
    (None, "src/x/a.cc", 'auto id = obs::internHistogram("rpc.latency_ns");'),
    (
        "metric-name",
        "src/obs/x.cc",
        'auto id = internGauge("Served");',
    ),  # unqualified call inside namespace obs is still checked
    (
        "metric-label",
        "src/x/a.cc",
        'auto id = obs::internCounter("rpc.calls", {{"node", nodeName}});',
    ),
    (
        "metric-label",
        "src/x/a.cc",
        'auto id = internHistogram("h.ns",\n'
        '    {{"op", "query"}, {"seg", id.toString()}});',
    ),  # multi-line call; second pair is the unbounded one
    (
        None,
        "src/x/a.cc",
        'auto id = obs::internCounter("rpc.calls", {{"op", "query"}});',
    ),
    (
        None,
        "src/x/a.cc",
        'auto id = obs::internCounter(\n'
        '    "http.requests",\n'
        '    {{"path", obs::boundedLabelValue("http.requests", "path", p)}});',
    ),
    (
        None,
        "src/x/a.cc",
        "// dpss-lint: allow(metric-label) table has a fixed op set\n"
        'auto id = obs::internCounter("a.b", {{"op", opName}});',
    ),
    (
        "metric-label",
        "src/x/a.cc",
        "// dpss-lint: allow(metric-label)\n"
        'auto id = obs::internCounter("a.b", {{"op", opName}});',
    ),  # missing justification
    (
        "control-channel",
        "src/x/a.cc",
        "w.u8(net::control_op::kDecommission);",
    ),
    (
        "control-channel",
        "src/x/a.cc",
        'transport.call(controlNode(name), w.take());',
    ),
    (None, "src/net/control.cc", "w.u8(control_op::kDrainState);"),
    (None, "src/net/control.h", "constexpr std::uint8_t kDecommission = 6;"),
    (
        None,
        "src/x/a.cc",
        "net::controlDecommission(transport, nodeName);",
    ),  # the sanctioned helper spelling must stay clean
    ("raw-socket", "src/x/a.cc", "#include <sys/socket.h>"),
    ("raw-socket", "src/x/a.cc", "#include <netinet/tcp.h>"),
    ("raw-socket", "src/x/a.cc", "#include <poll.h>"),
    ("raw-socket", "src/x/a.cc", "int ep = epoll_create1(0);"),
    ("raw-socket", "src/x/a.cc", "int fd = ::socket(AF_INET, SOCK_STREAM, 0);"),
    (None, "src/net/socket.cc", "#include <sys/socket.h>"),
    (None, "src/net/server.cc", "#include <sys/epoll.h>"),
    (None, "src/x/a.cc", "websocket(x);"),  # substring must not trip it
    ("raw-modexp", "src/pss/a.cc", "auto x = Bigint::powm(c, k, n2);"),
    ("raw-modexp", "src/pss/a.cc", "auto x = Bigint::powmNaive(c, k, n2);"),
    ("raw-modexp", "src/pss/a.cc", "mpz_powm(r, b, e, m);"),
    (None, "src/crypto/paillier.cc", "auto x = Bigint::powm(c, k, n2);"),
    (None, "src/pss/a.cc", "out = pub.mulPlain(ec, block);"),
    (None, "src/x/a.cc", "auto x = Bigint::powm(c, k, n2);"),
    (
        None,
        "src/pss/a.cc",
        "// dpss-lint: allow(raw-modexp) proving-ground comparison only\n"
        "auto x = Bigint::powmNaive(c, k, n2);",
    ),
    ("chaos-api", "src/x/a.cc", "cluster.historical(0).crash();"),
    ("chaos-api", "src/x/a.cc", "historicals_[i]->crash();"),
    ("chaos-api", "src/x/a.cc", "deepStorage_.failNextGets(3);"),
    (None, "src/x/a.cc", "void crash();"),  # declaring the API is fine
    (
        None,
        "src/cluster/chaos_scheduler.cc",
        "cluster_.historical(i).crash();",
    ),
    (None, "src/cluster/cluster.cc", "slot.node->crash();"),
    (
        None,
        "src/x/a.cc",
        "// dpss-lint: allow(chaos-api) bench measures raw restart cost\n"
        "node.crash();",
    ),
    (
        "plaintext-release",
        "src/x/a.cc",
        "auto s = seg.payload.releaseForClientReconstruction();",
    ),
    (
        "plaintext-release",
        "src/net/frame.cc",
        "w.str(doc.releaseForClientReconstruction());",
    ),
    (None, "src/pss/session.cc",
     "auto s = p.releaseForClientReconstruction();"),
    (None, "src/cluster/pss_client.cc",
     "auto s = p.releaseForClientReconstruction();"),
    (None, "src/crypto/sensitive.h",
     "const std::string& releaseForClientReconstruction() const;"),
    (
        None,
        "src/x/a.cc",
        "// dpss-lint: allow(plaintext-release) client-side CLI output\n"
        "print(m.payload.releaseForClientReconstruction());",
    ),
    ("secret-memcpy", "src/x/a.cc",
     "memcpy(buf, &secretKey, sizeof(secretKey));"),
    ("secret-memcpy", "src/x/a.cc", "memset(&secrets[0], 0, n);"),
    ("secret-memcpy", "src/pss/a.cc",
     "std::memmove(dst, key.secretBytes(), n);"),
    (None, "src/crypto/sensitive.cc", "memset(&secret, 0, n);"),
    (None, "src/x/a.cc", "memcpy(dst, src, n);"),  # no secret involved
    (None, "src/x/a.cc", "int consecrated = memcmp(a, b, n);"),
    (
        "subscription-match",
        "src/cluster/realtime_node.cc",
        "pss::SubscriptionMatcher matcher(spec, seed, now);",
    ),
    (
        "subscription-match",
        "src/query/broker_node.cc",
        "StandingSearch search(query);",
    ),  # the deleted seed stub must not come back
    (None, "src/pss/subscription.cc",
     "std::optional<SubscriptionSnapshot> SubscriptionMatcher::seal("),
    (None, "src/cluster/subscription_host.cc",
     "entry.matcher = std::make_unique<pss::SubscriptionMatcher>(spec);"),
    (
        None,
        "src/x/a.cc",
        "subscriptions_.onDocument(offset, text, payload);",
    ),  # the sanctioned feed path stays clean
    (
        None,
        "src/x/a.cc",
        "// dpss-lint: allow(subscription-match) doc cross-reference only\n"
        "// see SubscriptionMatcher for the fold identities\n"
        "void fold();",
    ),
]


FIXTURE_RE = re.compile(r"//\s*dpss-lint-fixture:\s*expect\(([a-z\-, ]+)\)")
# Optional: lint the fixture as if it lived at this repo-relative path
# (for only_dirs rules like raw-modexp that fire only under src/pss/).
FIXTURE_AS_RE = re.compile(r"//\s*dpss-lint-fixture:\s*as\(([\w/.\-]+)\)")


def check_fixtures(dirpath: str) -> int:
    """Lint every fixture in `dirpath` and compare the rules found with
    the fixture's own declaration, e.g.:

        // dpss-lint-fixture: expect(wall-clock)
        // dpss-lint-fixture: expect(clean)

    Fixtures are linted as if they lived under src/ (they are never
    compiled and the tree walk never visits tests/)."""
    failures = 0
    names = sorted(
        n for n in os.listdir(dirpath) if n.endswith((".cc", ".h"))
    )
    if not names:
        print(f"no fixtures found in {dirpath}")
        return 1
    for name in names:
        with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        decl = next(
            (m for line in lines if (m := FIXTURE_RE.search(line))), None
        )
        if decl is None:
            print(f"fixture FAIL: {name}: missing dpss-lint-fixture header")
            failures += 1
            continue
        expected = {
            token.strip()
            for token in decl.group(1).split(",")
            if token.strip() and token.strip() != "clean"
        }
        as_decl = next(
            (m for line in lines if (m := FIXTURE_AS_RE.search(line))), None
        )
        relpath = (
            as_decl.group(1) if as_decl else f"src/lint_fixtures/{name}"
        )
        found = {f.rule for f in FileLint(relpath, lines).check()}
        if found != expected:
            print(
                f"fixture FAIL: {name}: expected "
                f"{sorted(expected) or 'clean'}, found {sorted(found) or 'clean'}"
            )
            failures += 1
    if failures == 0:
        print(f"fixtures OK ({len(names)} files)")
    return 1 if failures else 0


def selftest() -> int:
    failures = 0
    for expected, relpath, source in SELFTEST_CASES:
        findings = FileLint(relpath, source.splitlines()).check()
        rules = {f.rule for f in findings}
        if expected is None and findings:
            print(f"selftest FAIL: expected clean, got {rules}: {source!r}")
            failures += 1
        elif expected is not None and expected not in rules:
            print(
                f"selftest FAIL: expected {expected}, got "
                f"{rules or 'clean'}: {source!r}"
            )
            failures += 1
    if failures == 0:
        print(f"selftest OK ({len(SELFTEST_CASES)} cases)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the checkout containing scripts/)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the built-in rule-engine cases and exit",
    )
    parser.add_argument(
        "--check-fixtures",
        metavar="DIR",
        help="lint every fixture in DIR against its expect() header",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="repo-relative files to lint (default: all of src/)",
    )
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.check_fixtures:
        return check_fixtures(args.check_fixtures)

    relpaths = (
        [p.replace(os.sep, "/") for p in args.paths]
        if args.paths
        else list(source_files(args.root))
    )
    findings = []
    for relpath in relpaths:
        findings.extend(lint_file(args.root, relpath))

    for f in findings:
        print(f.render())
    if findings:
        print(f"dpss-lint: {len(findings)} violation(s) in {len(relpaths)} files")
        return 1
    print(f"dpss-lint: OK ({len(relpaths)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
