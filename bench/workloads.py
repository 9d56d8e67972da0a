"""Workloads of the benchmark: their inputs, operations and correctness checks.

Every workload is a list of operations run one after another by a single
caller (a closed loop).  One pass runs each operation once, in an order drawn
from the workload seed.  Each operation returns its output; the workload's
check for that operation returns ``None`` when the output is correct and a
reason otherwise.  Checks run outside the operation's timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from linkgraphs import coloring, construction, harness, links, minors
from linkgraphs import multigraph as mg
from linkgraphs.errors import LimitExceeded, LinkGraphError, OracleTooLarge

MINOR_CLAIMS = ("Thm2", "Thm3.1", "Thm3.2", "Thm3.3", "Thm3.4", "Thm3.5")
STRUCTURAL_CLAIMS = tuple(
    c for c in harness.ALL_CLAIMS if c not in MINOR_CLAIMS and c != "Lem4.2"
)

# A full verify-minors pass over default_corpus() takes about 80 s on a 2-core
# machine, and the five heaviest instances alone about 61 s, more than one run
# may take.  The pass keeps wheel(6) (the single slowest instance, a
# 12-vertex link graph at length 1) and bipartite(3,4) (where a cheaper memo
# key is known to lose) from the heavy tail, plus every instance whose
# Thm2/Thm3 operation takes under 1.5 s.  Dropped: dipole(3), dipole(4),
# complete(4), complete(5), bipartite(2,3), petersen and wheel(5).
MINOR_INSTANCES = (
    "dipole(2)", "dipole(5)", "complete(3)", "complete(6)",
    "bipartite(2,2)", "bipartite(2,4)", "bipartite(3,3)", "bipartite(3,4)",
    "cycle(3)", "cycle(4)", "cycle(5)", "cycle(6)", "cycle(7)", "cycle(8)",
    "path(3)", "path(4)", "path(5)", "path(6)", "path(7)", "path(8)",
    "wheel(6)", "parallel-bridge", "random1", "random2",
)

TINY_STRUCTURAL = ("dipole(2)", "cycle(4)", "path(3)", "bipartite(2,2)")
TINY_MINORS = ("dipole(2)", "cycle(4)", "path(4)")

LIMIT_ERRORS = (LimitExceeded, OracleTooLarge)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` and ``statuses`` are not.

    ``statuses`` maps the output to the pass/fail/skip status of each claim
    record the operation produced; without it the operation is one record,
    ``pass`` or ``fail`` by its check.
    """

    name: str
    run: Callable
    check: Callable
    statuses: Callable | None = None


class Workload:
    """Operations of one workload; ``groups`` keep their order within a pass."""

    def __init__(self, groups):
        self.groups = groups

    @property
    def ops_per_pass(self):
        return sum(len(g) for g in self.groups)

    def pass_ops(self, rng):
        order = rng.sample(self.groups, len(self.groups))
        return [op for group in order for op in group]


# -- verify workloads -----------------------------------------------------------


def _select(corpus, names):
    by_short = {inst.name.split("(seed=")[0]: inst for inst in corpus}
    return [by_short[name] for name in names]


def record_rows(report):
    return frozenset((r.claim, r.instance, r.ell, r.status, r.detail) for r in report.records)


class RecordCheck:
    """No ``fail`` record, and the same record set on every pass of a run."""

    def __init__(self):
        self.first = None

    def __call__(self, report):
        fails = [r for r in report.records if r.status == "fail"]
        if fails:
            r = fails[0]
            return f"{len(fails)} fail records, first {r.claim} {r.instance} ell={r.ell}: {r.detail}"
        rows = record_rows(report)
        if self.first is None:
            self.first = rows
        elif rows != self.first:
            return "record set differs from the first pass"
        return None


def _report_statuses(report):
    return [r.status for r in report.records]


def _suite_op(inst, claims, caps, name=None):
    return Op(
        name or inst.name,
        lambda: harness.verify_suite(corpus=[inst], claims=list(claims), caps=caps),
        RecordCheck(),
        _report_statuses,
    )


def check_battery(failures):
    if failures:
        return f"{len(failures)} recolouring violations, first {failures[0]}"
    return None


def verify_structural(rng, scale="full"):
    caps = harness.Caps()
    corpus = harness.default_corpus()
    if scale == "tiny":
        corpus = _select(corpus, TINY_STRUCTURAL)
    battery_seed = rng.randrange(2**32)
    battery = Op(
        f"Lem4.2-battery(seed={battery_seed})",
        lambda: harness.recolouring_battery(caps.recolour_instances, seed=battery_seed),
        check_battery,
        lambda failures: ["fail" if failures else "pass"],
    )
    return Workload([[_suite_op(i, STRUCTURAL_CLAIMS, caps)] for i in corpus] + [[battery]])


def verify_minors(rng, scale="full"):
    """One operation per (instance, ell): a run makes a single pass, and
    per-instance operations gave too few latency samples for a steady median.
    Thm2 and Thm3 of one ell share an operation, so a memo of the Hadwiger
    number inside one ``verify_suite`` call still sees their repeat."""
    caps = harness.Caps()
    names = TINY_MINORS if scale == "tiny" else MINOR_INSTANCES
    groups = []
    for inst in _select(harness.default_corpus(), names):
        for ell in caps.ell_range:
            minor_ells = (ell,) if ell in caps.minor_ells else ()
            claims = MINOR_CLAIMS if minor_ells else MINOR_CLAIMS[1:]
            op_caps = replace(caps, ell_range=(ell,), minor_ells=minor_ells)
            groups.append([_suite_op(inst, claims, op_caps, f"{inst.name}@{ell}")])
    return Workload(groups)


# -- large-ell workload ---------------------------------------------------------


def largest_ell(G, budget):
    """Largest length whose link graph the suite builds: the ell- and
    (ell+1)-links both within ``budget``."""
    ell = 0
    while True:
        try:
            links.enumerate_links(G, ell + 2, budget)
        except LimitExceeded:
            return ell
        ell += 1


@dataclass
class Expected:
    """Reference values for one (graph, ell), computed once per run."""

    n: int
    m: int
    closed_form: tuple | None


def expected_counts(G, ell, limit):
    n = len(links.enumerate_links(G, ell, limit))
    m = len(links.enumerate_links(G, ell + 1, limit))
    closed = None
    if G.n and G.min_degree() == G.max_degree() and ell >= 1:
        r = G.max_degree()
        closed = (G.m * (r - 1) ** (ell - 1), G.m * (r - 1) ** ell)
    return Expected(n, m, closed)


def check_build(H, exp):
    if (H.n, H.m) != (exp.n, exp.m):
        return f"link graph has {H.n} vertices and {H.m} edges, expected {exp.n} and {exp.m}"
    if exp.closed_form is not None and (H.n, H.m) != exp.closed_form:
        return f"({H.n}, {H.m}) differs from the closed form {exp.closed_form}"
    return None


def check_stats(out):
    H, degrees, hub_connected = out
    if len(degrees) != H.n or sum(degrees) != 2 * H.m:
        return "degree sequence does not match the link graph"
    bfs = H.is_connected()
    if hub_connected != bfs:
        return f"hub criterion says connected={hub_connected}, BFS says {bfs}"
    return None


def check_coloring(rec, exp):
    H = rec.graph
    if (H.n, H.m) != (exp.n, exp.m):
        return f"coloured graph has {H.n} vertices and {H.m} edges, expected {exp.n} and {exp.m}"
    try:
        proper = coloring.is_proper(H, rec.coloring)
    except LinkGraphError as exc:
        return f"colouring rejected: {exc}"
    if not proper:
        return "colouring is not proper"
    if H.n and rec.coloring.max_color() > rec.coloring.t:
        return f"colour {rec.coloring.max_color()} outside the palette of {rec.coloring.t}"
    return None


def minor_output(res):
    """The ``minor`` operation's output: the result and the witness verdict."""
    return res, minors.verify_minor(res.witness.host, res.witness)


def check_minor(out, exp):
    res, verdict = out
    host = res.witness.host
    if not verdict.ok:
        return f"witness rejected: {verdict.reason}"
    if (host.n, host.m) != (exp.n, exp.m):
        return "witness host is not the link graph"
    if res.bound != res.witness.target_size or res.bound < 2:
        return f"bound {res.bound} does not match a K_{res.witness.target_size} witness"
    return None


class LargeGraph:
    """The four CLI operations (build, stats, color, minor) on one graph."""

    def __init__(self, label, G, ell, caps):
        self.label = f"{label}@{ell}"
        self.G = G
        self.ell = ell
        self.caps = caps
        self.H = None
        self._expected = None

    def expected(self):
        if self._expected is None:
            self._expected = expected_counts(self.G, self.ell, self.caps.link_limit)
        return self._expected

    def build(self):
        self.H = construction.link_graph(self.G, self.ell, self.caps.link_limit)
        return self.H

    def stats(self):
        # the last use of the built graph: the output carries it to the check
        H, self.H = self.H, None
        hub = construction.link_graph_connected(self.G, self.ell, self.caps.link_limit)
        return H, H.degrees(), hub

    def color(self):
        return coloring.recursive_chromatic_bound(
            self.G, self.ell, self.caps.chromatic_cap, self.caps.link_limit
        )

    def minor(self):
        res = minors.hadwiger_lower_bound(
            self.G, self.ell, eta_cap=self.caps.hadwiger_cap, limit=self.caps.link_limit
        )
        return minor_output(res)

    def ops(self):
        return [
            Op(f"{self.label}:build", self.build, lambda H: check_build(H, self.expected())),
            Op(f"{self.label}:stats", self.stats, check_stats),
            Op(f"{self.label}:color", self.color, lambda rec: check_coloring(rec, self.expected())),
            Op(f"{self.label}:minor", self.minor, lambda out: check_minor(out, self.expected())),
        ]


def large_ell(rng, scale="full"):
    caps = harness.Caps()
    if scale == "tiny":
        budget = 2_000
        fixed = [("petersen", mg.petersen(), 10), ("complete(4)", mg.complete(4), 3)]
        seeds = harness.DEFAULT_SEEDS[:1]
    else:
        budget = caps.suite_links
        fixed = [
            ("petersen", mg.petersen(), 10),
            ("petersen", mg.petersen(), 12),
            ("complete(5)", mg.complete(5), 6),
            ("complete(6)", mg.complete(6), 5),
            ("wheel(6)", mg.wheel(6), 6),
        ]
        seeds = harness.DEFAULT_SEEDS
    graphs = [LargeGraph(label, G, ell, caps) for label, G, ell in fixed]
    for k, seed in enumerate(seeds, start=1):
        G = mg.random_multigraph(seed)
        graphs.append(LargeGraph(f"random{k}", G, largest_ell(G, budget), caps))
    return Workload([g.ops() for g in graphs])


WORKLOADS = {
    "verify-structural": verify_structural,
    "verify-minors": verify_minors,
    "large-ell": large_ell,
}


def make(name, rng, scale="full"):
    return WORKLOADS[name](rng, scale)


def op_statuses(op, out, exc, reason):
    """Record statuses of one operation; a limit or oracle cap is a skip."""
    if exc is not None:
        return ["skip" if isinstance(exc, LIMIT_ERRORS) else "fail"]
    if op.statuses is not None:
        return op.statuses(out)
    return ["fail" if reason else "pass"]

