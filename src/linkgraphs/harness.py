"""Verification suites: every structural claim checked against brute-force
oracles on a small corpus, with a deterministic JSON report."""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from itertools import combinations

from . import multigraph as mg
from .coloring import (
    Coloring,
    _base_coloring,
    _chromatic_bounds,
    _lifted,
    exact_chromatic,
    exact_edge_chromatic,
    is_proper,
    reduce_coloring,
)
from .construction import (
    _chains_match,
    _hub_criterion,
    _natural_check,
    _path_graph_of,
    _shunt_search,
    _windows_digraph,
    _windows_graph,
    iterated_line_digraph,
    link_graph,
    natural_partition,
    reachable,
    verify_almost_standard,
)
from .errors import LimitExceeded, OracleTooLarge, WitnessInvalid
from .links import (
    Link,
    _arc_cap,
    _arc_levels,
    _arc_windows,
    _check_limit,
    _kernel,
    _link_cap,
    _link_ids,
    _middle_ids,
    _middle_tuples,
    _walks,
    enumerate_links,
    hub_subgraph,
)
from .minors import _lower_bound, hadwiger_number, verify_minor
from .multigraph import Multigraph

REPORT_VERSION = 1
DEFAULT_SEEDS = (0x9E3779B97F4A7C15, 0xD1B54A32D192ED03)

OUT_OF_SCOPE = [
    "external proofs are used only as checked inequalities on instances "
    "(line-graph clique-minor bound, six-colour clique-minor bound, "
    "multigraph edge-colouring bounds, series-parallel edge colouring)",
    "characterisation of which abstract graphs are link graphs",
    "asymptotic and infinite-family claims",
]

ALL_CLAIMS = [
    "Obs3.1", "Obs3.2", "Obs3.3", "Obs3.4",
    "Lem3.5", "Cor3.6", "Lem3.7", "Cor3.8",
    "Lem4.1", "Lem4.2",
    "Thm1.1", "Thm1.2", "Thm1.3", "Thm1.4", "ArcChrom",
    "Cor1.2", "Cor4.4",
    "Thm2",
    "Thm3.1", "Thm3.2", "Thm3.3", "Thm3.4", "Thm3.5",
    "PathGirth", "DigraphIso",
]


@dataclass
class Caps:
    link_limit: int = 10**6
    suite_links: int = 60_000
    chromatic_cap: int = 64
    hadwiger_cap: int = 12
    minor_ells: tuple = (1, 2, 3)
    ell_range: tuple = (0, 1, 2, 3, 4, 5)
    recolour_instances: int = 120


@dataclass
class ClaimRecord:
    claim: str
    instance: str
    ell: object
    status: str  # pass | fail | skip
    detail: str = ""
    ms: int = 0

    def to_dict(self):
        return {
            "claim": self.claim,
            "instance": self.instance,
            "ell": self.ell,
            "status": self.status,
            "detail": self.detail,
            "ms": self.ms,
        }


@dataclass
class Report:
    seeds: tuple
    records: list = field(default_factory=list)

    def failures(self):
        return [r for r in self.records if r.status == "fail"]

    def passed(self):
        return not self.failures()

    def to_json(self):
        records = sorted(self.records, key=lambda r: (r.claim, r.instance, str(r.ell)))
        return json.dumps(
            {
                "report_version": REPORT_VERSION,
                "seeds": list(self.seeds),
                "claims_covered": ALL_CLAIMS,
                "out_of_scope": OUT_OF_SCOPE,
                "counts": {
                    "pass": sum(1 for r in self.records if r.status == "pass"),
                    "fail": sum(1 for r in self.records if r.status == "fail"),
                    "skip": sum(1 for r in self.records if r.status == "skip"),
                },
                "records": [r.to_dict() for r in records],
            },
            indent=2,
            sort_keys=True,
        )


# -- corpus -------------------------------------------------------------------


@dataclass
class CorpusInstance:
    name: str
    graph: Multigraph
    bipartite: tuple | None = None  # (n, m) when a complete bipartite generator


def default_corpus(seeds=DEFAULT_SEEDS):
    out = []
    for t in range(2, 6):
        out.append(CorpusInstance(f"dipole({t})", mg.dipole(t)))
    for n in range(3, 7):
        out.append(CorpusInstance(f"complete({n})", mg.complete(n)))
    for n in (2, 3):
        for m in range(n, 5):
            out.append(
                CorpusInstance(f"bipartite({n},{m})", mg.complete_bipartite(n, m), (n, m))
            )
    for n in range(3, 9):
        out.append(CorpusInstance(f"cycle({n})", mg.cycle(n)))
    for n in range(3, 9):
        out.append(CorpusInstance(f"path({n})", mg.path(n)))
    out.append(CorpusInstance("petersen", mg.petersen()))
    out.append(CorpusInstance("wheel(5)", mg.wheel(5)))
    out.append(CorpusInstance("wheel(6)", mg.wheel(6)))
    out.append(CorpusInstance("parallel-bridge", mg.parallel_bridge()))
    for k, seed in enumerate(seeds, start=1):
        out.append(CorpusInstance(f"random{k}(seed={seed})", mg.random_multigraph(seed)))
    return out


class _Cache:
    """Per-run cache of enumerations, derived graphs and oracle answers.

    Everything is keyed by ``(instance name, ell)``, and each link graph is
    built at most once.  An oracle call that raises is not stored, so asking
    again raises again.

    The instance being checked has one arc kernel, made in two stages and
    dropped by ``release``.  Its arc counts and reach table (one ``_walks``
    up to ``span[1]``) are made on first use; they decide every budget
    check, and ``count`` reads the number of links of a length off them.  Its
    levels are built on the first ``kernel`` read that needs them.  They
    hold every arc of the lengths ``span[0]`` and up (no level from there on
    is pruned); their top is the longest length, at most ``span[1]``, whose
    arc count and those of every shorter length from ``span[0]`` fit the
    suite link budget.  Link graphs and the other kernel reads take their
    levels from it; a read outside it builds its own kernel, as before.
    """

    def __init__(self, caps, span=(0, 0)):
        self.caps = caps
        self.span = span
        self._graphs = {}
        self._answers = {}
        self._current = None  # see _counts

    def _counts(self, inst):
        """The instance's ``[name, totals, fwd, fit, levels]``: the arc counts
        and reach table up to ``span[1]``, the top of the levels (below
        ``span[0]`` when no length fits the suite link budget), and the
        levels, ``None`` until built."""
        if self._current is None or self._current[0] != inst.name:
            low, top = self.span
            totals, fwd = _walks(inst.graph, top) if top >= 1 else ((), ())
            fit = low - 1
            while fit < len(totals) - 1 and (
                    totals[fit + 1] <= _link_cap(fit + 1, self.caps.suite_links)):
                fit += 1
            self._current = [inst.name, totals, fwd, fit, None]
        return self._current

    def kernel(self, inst, limits):
        """What ``links._kernel`` gives for the ``{length: cap}`` ``limits``:
        levels that hold every arc of those lengths, after checking each cap
        on the arc counts in increasing length.  It raises what ``_kernel``
        raises."""
        current = self._counts(inst)
        _, totals, fwd, fit, levels = current
        if not self.span[0] <= min(limits) <= max(limits) <= fit:
            return _kernel(inst.graph, min(limits), limits)
        for length in sorted(limits):
            _check_limit(totals[length], limits[length])
        if levels is None:
            levels = current[4] = _arc_levels(inst.graph, fwd, self.span[0], fit)
            # no read extends a level, so the tables for that go
            for level in levels:
                level.kids = level.back = level.rank = None
        return levels

    def count(self, inst, ell):
        """The number of ``ell``-links, read off the arc counts; ``None``
        exactly where ``enumerate_links`` raises at the suite link budget.  A
        length past the instance's counts counts its own arcs, as ``kernel``
        builds its own kernel there."""
        totals = self._counts(inst)[1]
        if ell >= len(totals):
            totals, _ = _walks(inst.graph, ell)
        try:
            _check_limit(totals[ell], _link_cap(ell, self.caps.suite_links))
        except LimitExceeded:
            return None
        # an arc of length >= 1 is never its own reverse, as G has no loop
        return totals[ell] if ell == 0 else totals[ell] // 2

    def shape(self, inst, ell):
        """``(n, m)`` of the link graph at ``ell``, read off the arc counts:
        ``None`` exactly where ``graph`` is ``None``."""
        n, m = self.count(inst, ell), self.count(inst, ell + 1)
        return None if n is None or m is None else (n, m)

    def release(self):
        """Drop the kernel and the link graphs of the instance checked last;
        a graph whose links were never read holds its kernel levels."""
        self._current = None
        self._graphs.clear()

    def link_levels(self, inst, lo, hi):
        """Levels that hold every arc of lengths ``lo`` to ``hi``, checked
        against the suite link budget as link enumeration checks it."""
        budget = self.caps.suite_links
        return self.kernel(inst, {L: _link_cap(L, budget) for L in range(lo, hi + 1)})

    def graph(self, inst, ell):
        """The link graph, or ``None`` beyond the suite link budget.  Like
        ``link_graph`` it checks the ``ell``- and ``(ell + 1)``-links against
        the budget."""
        key = (inst.name, ell)
        if key not in self._graphs:
            try:
                levels = self.link_levels(inst, ell, ell + 1)
            except LimitExceeded:
                self._graphs[key] = None
            else:
                self._graphs[key] = _windows_graph(inst.graph, ell, levels)
        return self._graphs[key]

    def built(self, inst, ell):
        """The link graph; beyond the suite link budget it raises what
        ``link_graph`` raises."""
        H = self.graph(inst, ell)
        return link_graph(inst.graph, ell, self.caps.suite_links) if H is None else H

    def hub(self, inst, ell):
        """The hub subgraph of the base graph at ``ell``."""
        return self._answer(
            "hub", inst, ell, lambda: hub_subgraph(inst.graph, ell, self.caps.suite_links))

    def middles(self, inst, length, s):
        """The middle segments of length ``s <= 2`` of the ``length``-links,
        as canonical unit tuples read off kernel ids; ``None`` beyond the
        suite link budget."""

        def solve():
            if self.count(inst, length) is None:
                return None
            return _middle_tuples(inst.graph, self.link_levels(inst, length, length), length, s)

        return self._answer("middles", inst, (length, s), solve)

    def middle_comps(self, inst, ell):
        """Per middle unit of the ``ell``-links, the set of the numbers of the
        components of the link graph that hold a link with that middle unit."""

        def solve():
            H = self.graph(inst, ell)
            comp_of = {i: k for k, comp in enumerate(H.components()) for i in comp}
            by_mid = {}
            for i, link in enumerate(H.vertices):
                by_mid.setdefault(link.middle_unit(), set()).add(comp_of[i])
            return by_mid

        return self._answer("middle_comps", inst, ell, solve)

    def _answer(self, kind, inst, ell, solve):
        key = (kind, inst.name, ell)
        if key not in self._answers:
            self._answers[key] = solve()
        return self._answers[key]

    def eta(self, inst, ell=None):
        """Hadwiger number of the base graph (``ell=None``) or of its link graph."""

        def solve():
            G = inst.graph if ell is None else self.graph(inst, ell).to_multigraph()
            return hadwiger_number(G, self.caps.hadwiger_cap)

        return self._answer("eta", inst, ell, solve)

    def base_chi(self, inst):
        """``exact_chromatic`` of the underlying simple graph of the base graph."""
        return self._answer(
            "base_chi", inst, None,
            lambda: exact_chromatic(inst.graph.underlying_simple(), self.caps.chromatic_cap))

    def edge_chi(self, inst):
        """``exact_edge_chromatic`` of the base graph."""
        return self._answer(
            "edge_chi", inst, None,
            lambda: exact_edge_chromatic(inst.graph, self.caps.chromatic_cap))

    def chi(self, inst, ell):
        """``exact_chromatic`` of the link graph: ``(chi, colouring)``.  A
        colouring that is not proper raises ``WitnessInvalid``."""

        def solve():
            H = self.graph(inst, ell)
            chi, col = exact_chromatic(H, self.caps.chromatic_cap)
            if not is_proper(H, col):
                raise WitnessInvalid(f"exact_chromatic gave an improper colouring at ell={ell}")
            return chi, col

        return self._answer("chi", inst, ell, solve)

    def recursive(self, inst, ell):
        """``recursive_chromatic_bound`` of the link graph, lifted from the
        memo two levels down through the middle segments on kernel ids.
        Beyond the suite link budget it raises what ``link_graph`` raises."""

        def solve():
            below = self.recursive(inst, ell - 2) if ell >= 2 else None
            H = self.built(inst, ell)
            if below is None:
                return _base_coloring(inst.graph, H, self.caps.chromatic_cap,
                                      lambda: self.edge_chi(inst))
            levels = self.link_levels(inst, ell - 2, ell)
            middle = _middle_ids(levels, ell, _link_ids(levels[ell - 2]))
            return _lifted(inst.graph, below, H, middle)

        return self._answer("recursive", inst, ell, solve)

    def lower_bound(self, inst, ell):
        """The verified clique-minor lower bound in the link graph.  Its
        model route reads the Hadwiger number of a connected base graph off
        the memo of ``eta``."""
        G, cap = inst.graph, self.caps.hadwiger_cap

        def solve_eta(sub):
            return self.eta(inst) if G.is_connected() else hadwiger_number(sub, cap)

        return self._answer(
            "lower_bound", inst, ell,
            lambda: _lower_bound(G, ell, self.graph(inst, ell), cap, self.caps.suite_links,
                                 solve_eta),
        )


def _hub_links(hub, s):
    """The ``s``-links of the subgraph ``hub`` for ``s <= 2``, as canonical
    unit tuples in order: its vertices, its edges, and its pairs of distinct
    edges at a vertex."""
    if s == 0:
        return [(v,) for v in hub.vertices]
    if s == 1:
        return sorted((u, e, v) if u < v else (v, e, u) for e, u, v in hub.edges())
    return sorted(min((a, e, v, f, b), (b, f, v, e, a)) for v in hub.vertices
                  for (e, a), (f, b) in combinations(hub.incident(v), 2))


def _hub_parts(H, hub):
    """Per connected component of ``hub``, a subgraph of the base graph of the
    link graph ``H``: the indices of the links of ``H`` inside it (all their
    edges, or at ``ell = 0`` their vertex, in it), and the set of indices of
    the links whose middle unit is in it."""
    comps = hub.components()
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    edge_comp = {eid: comp_of[u] for eid, u, _ in hub.edges()}
    inside = [[] for _ in comps]
    middle = [set() for _ in inside]
    ell = H.ell
    mid_comp = comp_of if ell % 2 == 0 else edge_comp
    for i, link in enumerate(H.vertices):
        u = link.units
        k = mid_comp.get(u[ell])
        if k is None:
            continue
        middle[k].add(i)
        # a link with every edge in the hub has its middle unit there too
        if ell == 0 or all(map(edge_comp.__contains__, u[1::2])):
            inside[k].append(i)
    return list(zip(inside, middle))


def _timed(records, claim, inst_name, ell, fn):
    start = time.perf_counter()
    try:
        status, detail = fn()
    except LimitExceeded as exc:
        status, detail = "skip", f"limit: {exc}"
    except OracleTooLarge as exc:
        status, detail = "skip", f"oracle: {exc}"
    except Exception as exc:
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    ms = int((time.perf_counter() - start) * 1000)
    records.append(ClaimRecord(claim, inst_name, ell, status, detail, ms))


def _is_regular(G):
    if G.n == 0 or G.min_degree() != G.max_degree():
        return None
    return G.max_degree()


# -- claim checkers -----------------------------------------------------------


def _check_counting(inst, caps, cache, records):
    G = inst.graph
    r = _is_regular(G)
    for ell in caps.ell_range:
        def fn(ell=ell):
            # the edges of the level build against the dart-transfer count
            H = cache.graph(inst, ell)
            nxt = cache.count(inst, ell + 1)
            if H is None or nxt is None:
                return "skip", "beyond the suite link budget"
            if H.m != nxt:
                return "fail", f"|E|={H.m} but {nxt} longer links"
            detail = f"|E(L_{ell})|={H.m}"
            if r is not None and r >= 2:
                expect = G.m * (r - 1) ** ell
                if nxt != expect:
                    return "fail", f"count {nxt} != m(r-1)^ell = {expect}"
                if ell >= 1:
                    degs = set(H.degrees())
                    if degs and degs != {2 * (r - 1)}:
                        return "fail", f"not {2 * (r - 1)}-regular: {sorted(degs)}"
                detail += f", regular check r={r}"
            return "pass", detail

        _timed(records, "Obs3.1", inst.name, ell, fn)


def _check_bipartite_counts(inst, caps, cache, records):
    if inst.bipartite is None:
        return
    n, m = inst.bipartite
    if n < 2 or m < 2:
        return
    for ell in caps.ell_range:
        if ell < 1:
            continue

        def fn(ell=ell):
            order = cache.count(inst, ell)
            H = cache.graph(inst, ell)
            if order is None or H is None:
                return "skip", "beyond the suite link budget"
            if ell % 2 == 1:
                expect = n * m * ((n - 1) * (m - 1)) ** ((ell - 1) // 2)
                if order != expect:
                    return "fail", f"order {order} != {expect}"
                degs = set(H.degrees())
                if degs != {n + m - 2}:
                    return "fail", f"not {n + m - 2}-regular: {sorted(degs)}"
                return "pass", f"order {expect}, ({n + m - 2})-regular"
            expect = (n * m * (n + m - 2) * ((n - 1) * (m - 1)) ** (ell // 2 - 1)) // 2
            if order != expect:
                return "fail", f"order {order} != {expect}"
            avg = 2 * H.m / H.n
            want = 4 * (n - 1) * (m - 1) / (n + m - 2)
            if abs(avg - want) > 1e-9:
                return "fail", f"average degree {avg} != {want}"
            return "pass", f"order {expect}, average degree {want:g}"

        _timed(records, "Obs3.2", inst.name, ell, fn)


def _check_looplessness(inst, caps, cache, records):
    for ell in caps.ell_range:
        def fn(ell=ell):
            H = cache.graph(inst, ell)
            if H is None:
                return "skip", "beyond the suite link budget"
            for i, j, lab in H.edges:
                if i == j:
                    return "fail", f"loop at {H.vertices[i]}"
                # the two windows are one link when one equals the other or its reverse
                w0, w1 = lab.units[:-2], lab.units[2:]
                if w0 == w1 or w0 == w1[::-1]:
                    return "fail", f"windows of {lab} coincide"
            return "pass", f"{H.m} edges loopless"

        _timed(records, "Obs3.3", inst.name, ell, fn)


def _alternating_link(v, e, w, f, length):
    """The link of the walk of the given length around a parallel pair,
    starting at ``v`` by ``e``, as a canonical unit tuple."""
    units = [v]
    verts = (v, w)
    edges = (e, f)
    for k in range(length):
        units.append(edges[k % 2])
        units.append(verts[(k + 1) % 2])
    units = tuple(units)
    return min(units, units[::-1])


def _parallel_patterns(parallel_pairs, ell):
    """The doubled edges the parallel pairs make at ``ell``: a map from the
    two ``ell``-links of the walks alternating around a pair to each set of
    the two ``(ell + 1)``-links that join them, as canonical unit tuples.

    A pair ``(u, v, e, f)`` has four orientations, but starting at ``v`` by
    ``f`` spells the links of starting at ``u`` by ``e``, so two remain."""
    table = {}
    for u, v, e, f in parallel_pairs:
        for x, y in ((u, v), (v, u)):
            windows = frozenset((_alternating_link(x, e, y, f, ell),
                                 _alternating_link(y, f, x, e, ell)))
            labels = frozenset((_alternating_link(x, e, y, f, ell + 1),
                                _alternating_link(y, f, x, e, ell + 1)))
            table.setdefault(windows, set()).add(labels)
    return table


def _check_multiplicity(inst, caps, cache, records):
    G = inst.graph
    parallel_pairs = []
    byp = {}
    for eid, u, v in G.edges():
        key = (u, v) if u <= v else (v, u)
        byp.setdefault(key, []).append(eid)
    for (u, v), eids in sorted(byp.items()):
        for a in range(len(eids)):
            for b in range(a + 1, len(eids)):
                parallel_pairs.append((u, v, eids[a], eids[b]))
    for ell in caps.ell_range:
        if ell < 1:
            continue

        def fn(ell=ell):
            H = cache.graph(inst, ell)
            if H is None:
                return "skip", "beyond the suite link budget"
            groups = H.edge_groups()
            doubled = {pair: labs for pair, labs in groups.items() if len(labs) > 1}
            patterns = _parallel_patterns(parallel_pairs, ell)
            for pair, labs in doubled.items():
                if len(labs) > 2:
                    return "fail", f"multiplicity {len(labs)} at {pair}"
                windows = frozenset((H.vertices[pair[0]].units, H.vertices[pair[1]].units))
                if frozenset(lab.units for lab in labs) not in patterns.get(windows, ()):
                    return "fail", f"doubled edge at {pair} without a parallel-pair pattern"
            # converse: every parallel pair produces its doubled edge
            for u, v, e, f in parallel_pairs:
                i = H.index[Link(_alternating_link(u, e, v, f, ell))]
                j = H.index[Link(_alternating_link(v, f, u, e, ell))]
                if len(groups.get((i, j) if i < j else (j, i), ())) != 2:
                    return "fail", f"parallel pair {e},{f} not doubled at length {ell}"
            return "pass", f"{len(doubled)} doubled pairs, all patterned"

        _timed(records, "Obs3.4", inst.name, ell, fn)


def _check_hub(inst, caps, cache, records):
    G = inst.graph
    for ell in caps.ell_range:
        def lem35(ell=ell):
            count = cache.count(inst, ell)
            if count is None:
                return "skip", "beyond the suite link budget"
            hub = cache.hub(inst, ell)
            if G.is_connected() and not hub.is_connected():
                return "fail", "hub disconnected for connected base"
            # short links of the hub appear as middle segments two levels up
            base = 2 * (ell // 2)
            for s in (0, 1, 2):
                seen = cache.middles(inst, base + s, s)
                if seen is None:
                    return "skip", "beyond the suite link budget"
                for short in _hub_links(hub, s):
                    if short not in seen:
                        return "fail", f"{Link(short)} not a middle segment at length {base + s}"
            if not G.is_connected() or not count:
                return "pass", "hub segments covered"
            # any two middle units are joined through some shunting component
            if cache.graph(inst, ell) is None:
                return "skip", "beyond the suite link budget"
            unit_comps = cache.middle_comps(inst, ell)
            units = sorted(unit_comps)
            for a in range(len(units)):
                for b in range(a + 1, len(units)):
                    if not (unit_comps[units[a]] & unit_comps[units[b]]):
                        return "fail", f"middles {units[a]}, {units[b]} never co-reachable"
            return "pass", "hub connected; middle pairs co-reachable"

        _timed(records, "Lem3.5", inst.name, ell, lem35)

        def lem37(ell=ell):
            H = cache.graph(inst, ell)
            if H is None:
                return "skip", "beyond the suite link budget"
            adj = H.adjacency()
            for inside, allowed in _hub_parts(H, cache.hub(inst, ell)):
                if not inside:
                    continue
                # the vertices of H run in link order: start from the least link
                seen = reachable(adj, inside[:1], allowed)
                for i in inside:
                    if i not in seen:
                        return "fail", f"{H.vertices[i]} unreachable within its hub component"
            return "pass", "restricted shunting connects every hub component"

        _timed(records, "Lem3.7", inst.name, ell, lem37)

        def cor36(ell=ell):
            if not G.is_connected():
                return "skip", "base graph disconnected"
            H = cache.graph(inst, ell)
            if H is None:
                return "skip", "beyond the suite link budget"
            same_middle_ok = all(len(s) == 1 for s in cache.middle_comps(inst, ell).values())
            if same_middle_ok != H.is_connected():
                return "fail", (
                    f"same-middle shuntability {same_middle_ok} vs "
                    f"connectivity {H.is_connected()}"
                )
            return "pass", f"criterion matches connectivity ({H.is_connected()})"

        _timed(records, "Cor3.6", inst.name, ell, cor36)

        def cor38(ell=ell):
            H = cache.graph(inst, ell)
            if H is None:
                return "skip", "beyond the suite link budget"
            # link_graph_connected on the run's hub, kernel and link graph
            hub_answer = _hub_criterion(
                G, ell, H.n, cache.hub(inst, ell),
                lambda hub: _shunt_search(G, ell, hub, cache.link_levels(inst, ell, ell + 1), H),
                lambda: H)
            bfs_answer = H.is_connected()
            if hub_answer != bfs_answer:
                return "fail", f"hub criterion {hub_answer} vs BFS {bfs_answer}"
            return "pass", f"criterion = BFS = {bfs_answer}"

        _timed(records, "Cor3.8", inst.name, ell, cor38)


def _check_partition(inst, caps, cache, records):
    for ell in caps.ell_range:
        if ell < 2:
            continue

        def fn(ell=ell):
            H = cache.graph(inst, ell)
            lower = cache.graph(inst, ell - 2)
            if H is None or lower is None:
                return "skip", "beyond the suite link budget"
            # the parts by kernel ids: a vertex of lower, a label index one shorter
            check, embeds = _natural_check(
                cache.link_levels(inst, ell - 2, ell + 1), ell, lower.vertices.__getitem__,
                lambda y: cache.graph(inst, ell - 1).vertices[y], H.vertices.__getitem__)
            if not check.all_ok():
                return "fail", f"conditions failed: {check.failures}"
            if H.n and not embeds:
                return "fail", "quotient does not embed two levels down"
            return "pass", "conditions (a)-(e) and embedding hold"

        _timed(records, "Lem4.1", inst.name, ell, fn)


def random_recolour_instance(rng):
    """Random proper colouring where each vertex sees few foreign colours."""
    t = rng.randint(1, 10)
    r = rng.randint(0, 3)
    sizes = [rng.randint(0, 4) for _ in range(t)]
    if sum(sizes) == 0:
        sizes[rng.randrange(t)] = 1
    assign = {}
    classes = []
    v = 0
    for c, size in enumerate(sizes, start=1):
        for _ in range(size):
            assign[v] = c
            classes.append(c)
            v += 1
    n = v
    adj = [set() for _ in range(n)]
    foreign = [set() for _ in range(n)]
    for _ in range(rng.randint(0, 3 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or classes[a] == classes[b] or b in adj[a]:
            continue
        fa = foreign[a] | {classes[b]}
        fb = foreign[b] | {classes[a]}
        if len(fa) > r or len(fb) > r:
            continue
        adj[a].add(b)
        adj[b].add(a)
        foreign[a], foreign[b] = fa, fb
    return adj, Coloring(assign, t), r


def recolouring_battery(count, seed=2024):
    """Seeded random instances for the class-by-class recolouring pass."""
    rng = random.Random(seed)
    failures = []
    for k in range(count):
        adj, col, r = random_recolour_instance(rng)
        out = reduce_coloring(adj, col, r)
        bound = (col.t * r) // (r + 1) + 1
        if not is_proper(adj, out):
            failures.append((k, "not proper"))
        elif out.max_color() > bound:
            failures.append((k, f"{out.max_color()} colours > bound {bound}"))
        elif col.t <= r + 1 and out.assignment != col.assignment:
            failures.append((k, "identity case modified the colouring"))
    return failures


def _check_recolouring(caps, records):
    def fn():
        failures = recolouring_battery(caps.recolour_instances)
        if failures:
            return "fail", f"{len(failures)} violations, first: {failures[0]}"
        return "pass", f"{caps.recolour_instances} seeded instances within bound"

    _timed(records, "Lem4.2", "random-battery", None, fn)


def _check_chromatic(inst, caps, cache, records):
    G = inst.graph

    def exact_chi(ell):
        """The oracle's chi at a length of this run; None beyond the oracle."""
        if ell not in caps.ell_range:
            return None
        H = cache.graph(inst, ell)
        if H is None or H.n > caps.chromatic_cap:
            return None
        return cache.chi(inst, ell)[0]

    for ell in caps.ell_range:
        def fn(ell=ell):
            chi = exact_chi(ell)
            if chi is None:
                return "skip", "link graph beyond the chromatic oracle"
            # chromatic_upper_bounds from the memo, less the two-back bound no check reads
            bounds = _chromatic_bounds(G, ell, lambda length: cache.built(inst, length),
                                       lambda _: cache.chi(inst, 0)[0],
                                       lambda: cache.edge_chi(inst)[0])
            if ell % 2 == 0 and bounds.exact_chi and chi > bounds.parity_bound:
                return "fail", f"chi {chi} > parity bound {bounds.parity_bound}"
            if ell % 2 == 1 and bounds.exact_chi_prime and chi > bounds.parity_bound:
                return "fail", f"chi {chi} > parity bound {bounds.parity_bound}"
            if ell == 1 and bounds.exact_chi_prime and chi != bounds.chi_prime:
                return "fail", (
                    f"window-one chromatic {chi} differs from edge-chromatic "
                    f"{bounds.chi_prime}"
                )
            rec = cache.recursive(inst, ell)
            if rec.graph.n and not is_proper(rec.graph, rec.coloring):
                return "fail", "recursive colouring not proper"
            if rec.exact_base:
                # the lifted palette honours the parity and degree bounds; the
                # two-back bound holds for the exact value, not the palette
                guaranteed = [bounds.parity_bound]
                if bounds.max_degree_bound is not None:
                    guaranteed.append(bounds.max_degree_bound)
                floor_bound = min(guaranteed)
                if rec.coloring.t > floor_bound:
                    return "fail", f"recursive {rec.coloring.t} > bound {floor_bound}"
            return "pass", f"chi={chi} within parity bound {bounds.parity_bound}"

        claim = "Thm1.1" if ell % 2 == 0 else "Thm1.2"
        _timed(records, claim, inst.name, ell, fn)

        def fn3(ell=ell):
            chi = None if ell == 1 else exact_chi(ell)
            if chi is None:
                return "skip", "not applicable or beyond oracle"
            if chi > G.max_degree() + 1:
                return "fail", f"chi {chi} > max degree + 1"
            return "pass", f"chi={chi} <= {G.max_degree() + 1}"

        _timed(records, "Thm1.3", inst.name, ell, fn3)

        def fn4(ell=ell):
            chi = None if ell < 2 else exact_chi(ell)
            below = None if chi is None else exact_chi(ell - 2)
            if below is None:
                return "skip", "needs both oracle values"
            if chi > below:
                return "fail", f"chi rose: {chi} > {below}"
            return "pass", f"{chi} <= {below}"

        _timed(records, "Thm1.4", inst.name, ell, fn4)

        def fn_arc(ell=ell):
            chi = None if ell < 1 else exact_chi(ell)
            if chi is None:
                return "skip", "beyond oracle"
            count = cache.count(inst, ell)
            if count is None or 2 * count > caps.chromatic_cap:
                return "skip", "arc digraph beyond oracle"
            cap = _arc_cap(caps.suite_links)
            levels = cache.kernel(inst, {ell: cap, ell + 1: cap})
            A = _windows_digraph(G, ell, _arc_windows(G, levels, ell))
            adj = [set() for _ in range(A.n)]
            for i, j in A.underlying_pairs():
                adj[i].add(j)
                adj[j].add(i)
            chi_a, _ = exact_chromatic(adj, None)
            if chi_a > chi:
                return "fail", f"arc chromatic {chi_a} > link chromatic"
            return "pass", f"{chi_a} <= {chi}"

        _timed(records, "ArcChrom", inst.name, ell, fn_arc)

        def fn_cor12(ell=ell):
            try:
                if ell % 2 == 0:
                    base, _ = cache.base_chi(inst)
                    qualifies = base <= 3 or ell > 2 * math.log(base - 3, 1.5)
                else:
                    base, _ = cache.edge_chi(inst)
                    qualifies = base <= 3 or ell > 2 * math.log(base - 3, 1.5) + 1
            except OracleTooLarge:
                return "skip", "base oracle too large"
            if not qualifies:
                return "skip", "below the three-colour threshold"
            if cache.count(inst, ell) is None:
                return "skip", "beyond the suite link budget"
            rec = cache.recursive(inst, ell)
            if rec.graph.n and rec.coloring.t > 3:
                return "fail", f"recursive colouring uses {rec.coloring.t} > 3"
            chi = exact_chi(ell)
            if chi is not None and chi > 3:
                return "fail", f"exact chi {chi} > 3"
            return "pass", f"three-colourable at length {ell}"

        _timed(records, "Cor1.2", inst.name, ell, fn_cor12)

        def fn_cor44(ell=ell):
            delta = G.max_degree()
            if delta < 3 or ell <= 2 * math.log(delta - 2, 1.5) + 3:
                return "skip", "below the degree threshold"
            if cache.count(inst, ell) is None:
                return "skip", "beyond the suite link budget"
            rec = cache.recursive(inst, ell)
            if rec.graph.n and rec.coloring.t > 3:
                return "fail", f"recursive colouring uses {rec.coloring.t} > 3"
            return "pass", f"three colours beyond the degree threshold"

        _timed(records, "Cor4.4", inst.name, ell, fn_cor44)


def _check_minors(inst, caps, cache, records):
    G = inst.graph
    dege = G.degeneracy()

    def base_eta():
        try:
            return cache.eta(inst)
        except OracleTooLarge:
            return None

    for ell in caps.minor_ells:
        def fn(ell=ell):
            shape = cache.shape(inst, ell)
            if shape is None:
                return "skip", "beyond the suite link budget"
            if shape[1] == 0:
                return "skip", "link graph has no edge"
            H = cache.graph(inst, ell)
            res = cache.lower_bound(inst, ell)
            check = verify_minor(H, res.witness)
            if not check.ok:
                return "fail", f"witness invalid: {check.reason}"
            eta_g = base_eta()
            floor = dege if eta_g is None else max(eta_g, dege)
            if res.bound < floor:
                return "fail", f"bound {res.bound} below max(eta, degeneracy) = {floor}"
            detail = f"bound {res.bound} via {res.route}"
            if H.n <= caps.hadwiger_cap:
                eta_h = cache.eta(inst, ell)
                if eta_h < res.bound:
                    return "fail", f"oracle eta {eta_h} below witnessed bound {res.bound}"
                if eta_g is not None and eta_h < floor:
                    return "fail", f"oracle eta {eta_h} below {floor}"
                detail += f", exact eta {eta_h}"
            return "pass", detail

        _timed(records, "Thm2", inst.name, ell, fn)


def _theorem3_cases(G, ell):
    cases = []
    delta = G.max_degree()
    dege = G.degeneracy()
    if ell >= 1 and G.is_biconnected():
        cases.append(1)
    if ell >= 2 and ell % 2 == 0:
        cases.append(2)
    if dege >= 3 and delta > 2:
        if ell > 2 * math.log((delta - 2) / (dege - 2), 1.5) + 3:
            cases.append(3)
    if delta >= 3:
        exact_const = 4 * math.log(2, 1.5) - 3  # slightly above 3.83
        if ell > 2 * math.log(delta - 2, 1.5) - exact_const:
            cases.append(4)
    if delta <= 5:
        cases.append(5)
    return cases


def _check_hadwiger_conjecture(inst, caps, cache, records):
    G = inst.graph
    for ell in caps.ell_range:
        cases = _theorem3_cases(G, ell)
        for case in cases:
            def fn(case=case, ell=ell):
                # the skips read only the size, so they build no level and no graph
                shape = cache.shape(inst, ell)
                if shape is None:
                    return "skip", "beyond the suite link budget"
                n, m = shape
                if n > caps.chromatic_cap:
                    return "skip", "link graph beyond an oracle cap"
                chi, _ = cache.chi(inst, ell)
                if n <= caps.hadwiger_cap:
                    eta = cache.eta(inst, ell)
                    if eta < chi:
                        return "fail", f"eta {eta} < chi {chi}"
                    return "pass", f"eta {eta} >= chi {chi}"
                if ell < 1:
                    return "skip", (
                        f"link graph beyond the Hadwiger cap {caps.hadwiger_cap}; "
                        "no witness route at ell=0"
                    )
                if m == 0:
                    return "skip", "link graph has no edge"
                res = cache.lower_bound(inst, ell)
                if res.bound < chi:
                    return "fail", f"witnessed bound {res.bound} < chi {chi}"
                return "pass", f"witnessed bound {res.bound} >= chi {chi}"

            _timed(records, f"Thm3.{case}", inst.name, ell, fn)


def _check_path_graphs(inst, caps, cache, records):
    G = inst.graph
    girth = G.girth()
    for ell in caps.ell_range:
        def fn(ell=ell):
            H = cache.graph(inst, ell)
            if H is None:
                return "skip", "beyond the suite link budget"
            P = _path_graph_of(H)
            if girth > max(ell, 2):
                if not P.same_labeled_graph(H):
                    return "fail", "path graph differs despite the girth bound"
                return "pass", f"equal to the link graph (girth {girth})"
            # induced subgraph of the simplification on the path vertices
            S = H.simplify()
            s_units = [v.units for v in S.vertices]
            p_units = [v.units for v in P.vertices]
            s_pairs = {(s_units[i], s_units[j]) for i, j, _ in S.edges}
            p_pairs = {(p_units[i], p_units[j]) for i, j, _ in P.edges}
            pv = set(p_units)
            induced = {
                (a, b) for a, b in s_pairs if a in pv and b in pv
            }
            if ell >= 2 and p_pairs != induced:
                return "fail", "path graph is not the induced restriction"
            return "pass", "induced restriction verified"

        _timed(records, "PathGirth", inst.name, ell, fn)


# the lengths DigraphIso is checked at
_ISO_ELLS = (1, 2, 3)


def _check_digraph_iso(inst, caps, cache, records):
    G = inst.graph
    for ell in _ISO_ELLS:
        def fn(ell=ell):
            count = cache.count(inst, ell)
            if count is None or count > 2000:
                return "skip", "beyond the iso-check budget"
            # digraph_natural_iso_check on the instance kernel
            cap = _arc_cap(caps.suite_links)
            levels = cache.kernel(inst, {ell: cap, ell + 1: cap})
            if _chains_match(G, levels, ell, iterated_line_digraph(G, ell, caps.suite_links)):
                return "pass", "chain digraph isomorphic to the arc digraph"
            return "fail", "natural bijection is not an isomorphism"

        _timed(records, "DigraphIso", inst.name, ell, fn)


_CHECKERS = {
    "Obs3.1": _check_counting,
    "Obs3.2": _check_bipartite_counts,
    "Obs3.3": _check_looplessness,
    "Obs3.4": _check_multiplicity,
    "Lem3.5": _check_hub,
    "Lem4.1": _check_partition,
    "Thm1.1": _check_chromatic,
    "Thm2": _check_minors,
    "Thm3.1": _check_hadwiger_conjecture,
    "PathGirth": _check_path_graphs,
    "DigraphIso": _check_digraph_iso,
}

_GROUPS = {
    "Lem3.5": ["Lem3.5", "Cor3.6", "Lem3.7", "Cor3.8"],
    "Thm1.1": ["Thm1.1", "Thm1.2", "Thm1.3", "Thm1.4", "ArcChrom", "Cor1.2", "Cor4.4"],
    "Thm3.1": ["Thm3.1", "Thm3.2", "Thm3.3", "Thm3.4", "Thm3.5"],
}


def _kernel_span(caps, wanted):
    """The shortest and the longest arc length the selected claims read off
    the instance kernel.  Thm2 and Thm3.x read the link graphs of their
    lengths, DigraphIso the arcs of its lengths and one past, and the other
    claims may read every link graph from length 0 (the recursive colouring
    and the chromatic bounds) to their longest length."""
    minor = {claim for claim in wanted if claim == "Thm2" or claim.startswith("Thm3")}
    lengths = []
    if "Thm2" in wanted:
        lengths += caps.minor_ells
    if minor - {"Thm2"}:
        lengths += caps.ell_range
    if "DigraphIso" in wanted:
        lengths += _ISO_ELLS
    if wanted - minor - {"Lem4.2", "DigraphIso"}:
        lengths += [0, *caps.ell_range]
    if not lengths:
        return 0, 0
    return min(lengths), max(lengths) + 1


def verify_suite(corpus=None, claims=None, caps=None, seeds=DEFAULT_SEEDS):
    """Run the selected claim suites over the corpus and assemble a report."""
    caps = caps or Caps()
    corpus = corpus if corpus is not None else default_corpus(seeds)
    wanted = set(ALL_CLAIMS)
    if claims:
        wanted = set()
        for c in claims:
            wanted.update(k for k in ALL_CLAIMS if k == c or k.startswith(c))
    report = Report(seeds)
    cache = _Cache(caps, _kernel_span(caps, wanted))
    if "Lem4.2" in wanted:
        _check_recolouring(caps, report.records)
    for inst in corpus:
        for entry, checker in _CHECKERS.items():
            group = _GROUPS.get(entry, [entry])
            if not (set(group) & wanted):
                continue
            checker(inst, caps, cache, report.records)
        cache.release()
    report.records = [r for r in report.records if r.claim in wanted]
    return report


# -- negative controls ---------------------------------------------------------


def negative_controls():
    """Corrupt constructions on purpose; each check must notice."""
    results = []
    G = mg.complete(4)
    H = link_graph(G, 2)
    dropped = type(H)(H.ell, H.vertices, H.edges[:-1], H.source)
    count_breaks = dropped.m != len(enumerate_links(G, 3))
    results.append(("dropped-edge-counting", count_breaks))

    part = natural_partition(H)
    keys = sorted(part.vertex_parts)
    merged_parts = dict(part.vertex_parts)
    a, b = keys[0], keys[1]
    merged_parts[a] = merged_parts[a] | merged_parts[b]
    del merged_parts[b]
    merged = type(part)(part.ell, merged_parts, part.edge_parts)
    check = verify_almost_standard(H, merged)
    results.append(("merged-part-independence", not check.independent_parts))

    from .minors import MinorWitness, _complete_edges

    bad = MinorWitness(2, _complete_edges(2), [frozenset({0, 1}), frozenset({1})],
                       {(0, 1): (0, 1)}, H)
    results.append(("overlapping-branch-sets", not verify_minor(H, bad).ok))

    K3 = link_graph(mg.complete(3), 0)
    const = Coloring({i: 1 for i in range(K3.n)}, 1)
    results.append(("constant-colouring", not is_proper(K3, const)))
    return results
