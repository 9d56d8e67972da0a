"""Verification suites: every structural claim checked against brute-force
oracles on a small corpus, with a deterministic JSON report."""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, count, groupby
from operator import and_, attrgetter, eq, itemgetter

from . import multigraph as mg
from .coloring import (
    Coloring,
    _base_coloring,
    _decay_bound,
    _lifted,
    exact_chromatic,
    exact_edge_chromatic,
    is_proper,
    reduce_coloring,
)
from .construction import (
    _chains_match,
    _hub_criterion,
    _line_digraphs,
    _natural_check,
    _pair_adjacency,
    _path_parts,
    _windows_graph,
    link_graph,
    natural_partition,
    reachable,
    verify_almost_standard,
)
from .errors import InvalidParameter, LimitExceeded, OracleTooLarge, WitnessInvalid
from .links import (
    Link,
    _arc_cap,
    _arc_levels,
    _arcs,
    _check_limit,
    _canonical,
    _hub_graph,
    _inside,
    _kernel,
    _link_cap,
    _link_ids,
    _link_middles,
    _middle_tuples,
    _middle_units,
    _units_at,
    _walks,
    enumerate_links,
)
from .minors import _hadwiger, _lower_bound, hadwiger_number, verify_minor
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
            while totals and fit < top and (
                    _arcs(totals, fit + 1) <= _link_cap(fit + 1, self.caps.suite_links)):
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
            _check_limit(_arcs(totals, length), limits[length])
        if levels is None:
            levels = current[4] = _arc_levels(inst.graph, fwd, self.span[0], fit)
            # no read extends a level, so the tables for that go
            for level in levels:
                level.kids = level.back = level.rank = None
        return levels

    def _walks(self, inst, ell):
        """The ``(totals, fwd)`` of the instance's arc counts when they reach
        ``ell``; past them, a count of its own up to ``ell``, as ``kernel``
        builds its own kernel there."""
        _, totals, fwd, _, _ = self._counts(inst)
        if ell > self.span[1] or not totals:
            return _walks(inst.graph, ell)
        return totals, fwd

    def count(self, inst, ell):
        """The number of ``ell``-links, read off the arc counts; ``None``
        exactly where ``enumerate_links`` raises at the suite link budget."""
        arcs = _arcs(self._walks(inst, ell)[0], ell)
        try:
            _check_limit(arcs, _link_cap(ell, self.caps.suite_links))
        except LimitExceeded:
            return None
        # an arc of length >= 1 is never its own reverse, as G has no loop
        return arcs if ell == 0 else arcs // 2

    def shape(self, inst, ell):
        """``(n, m)`` of the link graph at ``ell``, read off the arc counts:
        ``None`` exactly where ``graph`` is ``None``."""
        n, m = self.count(inst, ell), self.count(inst, ell + 1)
        return None if n is None or m is None else (n, m)

    def release(self):
        """Drop the kernel, the link graphs and the oracle answers of the
        instance checked last; a graph whose links were never read holds its
        kernel levels, and a recursive colouring or a minor witness holds its
        link graph."""
        self._current = None
        self._graphs.clear()
        self._answers.clear()

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

    def hub(self, inst, ell):
        """``hub_subgraph`` of the base graph at ``ell``, with the middle
        units read off the arc counts: the base graph itself when they are
        all of it, and otherwise built once per distinct set of units."""
        return self._hub(inst, ell)[0]

    def hub_links(self, inst, ell, s):
        """``_hub_links`` of the hub at ``ell``, kept with the hub."""
        hub, links = self._hub(inst, ell)
        if s not in links:
            links[s] = _hub_links(hub, s)
        return links[s]

    def _hub(self, inst, ell):
        """``[hub, {s: its s-links}]`` at ``ell``, one per parity of ``ell``
        and set of middle units."""
        G = inst.graph

        def solve():
            units = _middle_units(G, ell, self._walks(inst, ell), self.caps.suite_links)
            return self._answer("hub_of", inst, (ell % 2, frozenset(units)),
                                lambda: [_hub_graph(G, ell, units), {}])

        return self._answer("hub", inst, ell, solve)

    def chain_digraph(self, inst, ell):
        """``iterated_line_digraph`` of the base graph at depth ``ell``, each
        depth one line-digraph step from the one before (``_line_digraphs``).
        The first depth is made when the memo is, so a limit it hits raises
        again on the next read."""

        def solve():
            deeper = _line_digraphs(inst.graph, self.caps.suite_links)
            return [next(deeper)], deeper

        made, deeper = self._answer("chains", inst, None, solve)
        while len(made) < ell:
            made.append(next(deeper))
        return made[ell - 1]

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
            units = _link_middles(inst.graph, self.link_levels(inst, ell, ell + 1), ell)
            for i, unit in enumerate(units):
                by_mid.setdefault(unit, set()).add(comp_of[i])
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
            if ell is None:
                return hadwiger_number(inst.graph, self.caps.hadwiger_cap)
            return _hadwiger(self.graph(inst, ell).adjacency(), self.caps.hadwiger_cap)

        return self._answer("eta", inst, ell, solve)

    def base_chi(self, inst):
        """``exact_chromatic`` of the base graph, which is that of its 0-link
        graph: both have the same neighbour sets in the same vertex order."""
        return self._answer(
            "base_chi", inst, None, lambda: exact_chromatic(inst.graph, self.caps.chromatic_cap))

    def edge_chi(self, inst):
        """``exact_edge_chromatic`` of the base graph."""
        return self._answer(
            "edge_chi", inst, None,
            lambda: exact_edge_chromatic(inst.graph, self.caps.chromatic_cap))

    def chi(self, inst, ell):
        """``exact_chromatic`` of the link graph: ``(chi, colouring)``, at
        ``ell = 0`` read off ``base_chi``.  A colouring that is not proper
        raises ``WitnessInvalid``."""

        def solve():
            H = self.graph(inst, ell)
            chi, col = (self.base_chi(inst) if ell == 0 else
                        exact_chromatic(H, self.caps.chromatic_cap))
            if not is_proper(H, col):
                raise WitnessInvalid(f"exact_chromatic gave an improper colouring at ell={ell}")
            return chi, col

        return self._answer("chi", inst, ell, solve)

    def recursive(self, inst, ell):
        """``recursive_chromatic_bound`` of the link graph: at length 0 or 1
        from the exact solve of ``base_chi`` or ``edge_chi``, and above lifted
        one table of middle ids from the memo two levels down, as Thm1.x and
        Cor4.4 read the colouring at every length.  Beyond the suite link
        budget it raises what ``link_graph`` raises."""

        def solve():
            below = self.recursive(inst, ell - 2) if ell >= 2 else None
            H = self.graph(inst, ell)
            if H is None:
                H = link_graph(inst.graph, ell, self.caps.suite_links)
            if below is None:
                base = self.edge_chi if ell else self.base_chi
                return _base_coloring(inst.graph, H, lambda: base(inst))
            return _lifted(below, H, self.link_levels(inst, ell - 2, ell))

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


def _hub_parts(G, ell, levels, hub):
    """Per connected component of ``hub``, a subgraph of ``G``: the indices of
    the ``ell``-links inside it (all their edges, or at ``ell = 0`` their
    vertex, in it), and the set of indices of the links whose middle unit is
    in it.  A link's index is its vertex index in the link graph; the links
    are read off kernel levels that hold every ``ell``-arc."""
    comps = hub.components()
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    mid_comp = comp_of if ell % 2 == 0 else {eid: comp_of[u] for eid, u, _ in hub.edges()}
    inside = [[] for _ in comps]
    middle = [set() for _ in inside]
    whole = compress(_inside(G, levels, ell, hub), _canonical(levels[ell]))
    for i, (k, whole_link) in enumerate(zip(map(mid_comp.get, _link_middles(G, levels, ell)),
                                            whole)):
        if k is None:
            continue
        middle[k].add(i)
        # a link with every edge in the hub has its middle unit there too
        if whole_link:
            inside[k].append(i)
    return list(zip(inside, middle))


class _Skip(Exception):
    """A check's skip; ``_timed`` records its text."""


def _fits(*reads):
    """The reads of the run cache, each ``None`` beyond the suite link
    budget; there the check records the budget skip."""
    for read in reads:
        if read is None:
            raise _Skip("beyond the suite link budget")
    return reads if len(reads) > 1 else reads[0]


def _timed(records, claim, inst, caps, cache, ell):
    """Append the record of ``claim`` at ``ell`` where the claim applies; an
    exception in deciding that or in the check is a ``fail`` record."""
    start = time.perf_counter()
    try:
        if claim.applies is not None and not claim.applies(inst, cache, ell):
            return
        status, detail = claim.check(inst, caps, cache, ell)
    except _Skip as exc:
        status, detail = "skip", str(exc)
    except LimitExceeded as exc:
        status, detail = "skip", f"limit: {exc}"
    except OracleTooLarge as exc:
        status, detail = "skip", f"oracle: {exc}"
    except Exception as exc:
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    ms = int((time.perf_counter() - start) * 1000)
    records.append(ClaimRecord(claim.name, inst.name, ell, status, detail, ms))


# -- claim checks: each gives the (status, detail) of one record ----------------


def _check_counting(inst, caps, cache, ell):
    G = inst.graph
    r = G.max_degree() if G.n and G.min_degree() == G.max_degree() else None
    # the edges of the level build against the dart-transfer count
    H, n, nxt = _fits(cache.graph(inst, ell), cache.count(inst, ell), cache.count(inst, ell + 1))
    if H.n != n:
        return "fail", f"|V|={H.n} but {n} links"
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


def _check_bipartite_counts(inst, caps, cache, ell):
    n, m = inst.bipartite
    order, H = _fits(cache.count(inst, ell), cache.graph(inst, ell))
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


def _check_looplessness(inst, caps, cache, ell):
    H = _fits(cache.graph(inst, ell))
    # the least loop, the first in the order of ``ends``; a label whose two
    # windows are one link is a loop, as its kernel parent and suffix have
    # one link index
    lo, hi = H._pairs()
    loop = min(compress(lo, map(eq, lo, hi)), default=None)
    if loop is not None:
        return "fail", f"loop at {H.vertices[loop]}"
    return "pass", f"{H.m} edges loopless"


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


def _doubled_units(G, levels, ell, pairs):
    """Per pair of ``ell``-link indices in ``pairs``, the unit tuples of its two
    links and of the ``(ell + 1)``-links that join them, as two frozensets,
    read off kernel levels that hold every ``ell``- and ``(ell + 1)``-arc."""
    out = {pair: (set(), set()) for pair in pairs}
    if not pairs:
        return out
    top, link_of = levels[ell + 1], _link_ids(levels[ell])
    ends = set(chain.from_iterable(pairs))
    # the canonical label arcs whose parent is a link of some pair
    starts = map(ends.__contains__, map(link_of.__getitem__, top.parent))
    for a in compress(count(), map(and_, _canonical(top), starts)):
        windows = top.parent[a], top.suffix[a]
        i, j = sorted(map(link_of.__getitem__, windows))
        if (i, j) in out:
            links, labels = out[i, j]
            for w in windows:
                u = _units_at(G, levels, ell, w)
                links.add(min(u, u[::-1]))
            labels.add(_units_at(G, levels, ell + 1, a))
    return {pair: (frozenset(links), frozenset(labels)) for pair, (links, labels) in out.items()}


def _parallel_pairs(G):
    """The pairs ``(u, v, e, f)`` of parallel edges, ``e`` before ``f`` in
    edge order, joining ``u <= v``."""
    byp = {}
    for eid, u, v in G.edges():
        byp.setdefault((u, v) if u <= v else (v, u), []).append(eid)
    return [(u, v, e, f) for (u, v), eids in sorted(byp.items())
            for e, f in combinations(eids, 2)]


def _check_multiplicity(inst, caps, cache, ell):
    G = inst.graph
    parallel_pairs = cache._answer("parallel_pairs", inst, None, lambda: _parallel_pairs(G))
    H = _fits(cache.graph(inst, ell))
    # the pairs count in sorted order, the order of ``ends``
    lo, hi = H._pairs()
    pairs = Counter(zip(map(min, lo, hi), map(max, lo, hi)))
    doubled = dict(sorted((pair, c) for pair, c in pairs.items() if c > 1))
    units = _doubled_units(G, cache.link_levels(inst, ell, ell + 1), ell, doubled)
    patterns = _parallel_patterns(parallel_pairs, ell)
    for pair, c in doubled.items():
        if c > 2:
            return "fail", f"multiplicity {c} at {pair}"
        windows, labels = units[pair]
        if labels not in patterns.get(windows, ()):
            return "fail", f"doubled edge at {pair} without a parallel-pair pattern"
    # converse: every parallel pair produces its doubled edge
    seen = {windows for windows, _ in units.values()}
    for u, v, e, f in parallel_pairs:
        windows = frozenset((_alternating_link(u, e, v, f, ell),
                             _alternating_link(v, f, u, e, ell)))
        if windows not in seen:
            return "fail", f"parallel pair {e},{f} not doubled at length {ell}"
    return "pass", f"{len(doubled)} doubled pairs, all patterned"


def _check_hub_segments(inst, caps, cache, ell):
    G = inst.graph
    count = _fits(cache.count(inst, ell))
    hub = cache.hub(inst, ell)
    if G.is_connected() and not hub.is_connected():
        return "fail", "hub disconnected for connected base"
    # short links of the hub appear as middle segments two levels up
    base = 2 * (ell // 2)
    for s in (0, 1, 2):
        seen = _fits(cache.middles(inst, base + s, s))
        for short in cache.hub_links(inst, ell, s):
            if short not in seen:
                return "fail", f"{Link(short)} not a middle segment at length {base + s}"
    if not G.is_connected() or not count:
        return "pass", "hub segments covered"
    # any two middle units are joined through some shunting component
    _fits(cache.graph(inst, ell))
    unit_comps = cache.middle_comps(inst, ell)
    units = sorted(unit_comps)
    for a in range(len(units)):
        for b in range(a + 1, len(units)):
            if not (unit_comps[units[a]] & unit_comps[units[b]]):
                return "fail", f"middles {units[a]}, {units[b]} never co-reachable"
    return "pass", "hub connected; middle pairs co-reachable"


def _check_same_middle(inst, caps, cache, ell):
    if not inst.graph.is_connected():
        return "skip", "base graph disconnected"
    H = _fits(cache.graph(inst, ell))
    same_middle_ok = all(len(s) == 1 for s in cache.middle_comps(inst, ell).values())
    if same_middle_ok != H.is_connected():
        return "fail", (f"same-middle shuntability {same_middle_ok} vs "
                        f"connectivity {H.is_connected()}")
    return "pass", f"criterion matches connectivity ({H.is_connected()})"


def _check_hub_shunting(inst, caps, cache, ell):
    H = _fits(cache.graph(inst, ell))
    adj = H.adjacency()
    levels = cache.link_levels(inst, ell, ell + 1)
    for inside, allowed in _hub_parts(inst.graph, ell, levels, cache.hub(inst, ell)):
        if not inside:
            continue
        # the vertices of H run in link order: start from the least link
        seen = reachable(adj, inside[:1], allowed)
        for i in inside:
            if i not in seen:
                return "fail", f"{H.vertices[i]} unreachable within its hub component"
    return "pass", "restricted shunting connects every hub component"


def _check_hub_criterion(inst, caps, cache, ell):
    G = inst.graph
    H = _fits(cache.graph(inst, ell))
    # link_graph_connected on the run's hub, kernel and link graph
    hub_answer = _hub_criterion(G, ell, H.n, cache.hub(inst, ell),
                                lambda: (cache.link_levels(inst, ell, ell + 1), H))
    bfs_answer = H.is_connected()
    if hub_answer != bfs_answer:
        return "fail", f"hub criterion {hub_answer} vs BFS {bfs_answer}"
    return "pass", f"criterion = BFS = {bfs_answer}"


def _check_partition(inst, caps, cache, ell):
    H, lower = _fits(cache.graph(inst, ell), cache.graph(inst, ell - 2))
    # the parts by kernel ids: a vertex of lower, a label index one
    # shorter; only a failure text makes a link
    check, embeds = _natural_check(
        cache.link_levels(inst, ell - 2, ell + 1), ell, lambda x: lower.vertices[x],
        lambda y: cache.graph(inst, ell - 1).vertices[y], lambda i: H.vertices[i])
    if not check.all_ok():
        return "fail", f"conditions failed: {check.failures}"
    if H.n and not embeds:
        return "fail", "quotient does not embed two levels down"
    return "pass", "conditions (a)-(e) and embedding hold"


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


def _check_recolouring(inst, caps, cache, ell):
    failures = recolouring_battery(caps.recolour_instances)
    if failures:
        return "fail", f"{len(failures)} violations, first: {failures[0]}"
    return "pass", f"{caps.recolour_instances} seeded instances within bound"


# -- chi of a link graph as a checked interval ---------------------------------
#
# Within the colouring cap the oracle gives chi.  Beyond it, where every link
# graph the recursive colouring builds up to the length fits the suite link
# budget, checked witnesses bound it instead: above the cached recursive
# colouring, below an odd closed walk (3), an edge (2) or a vertex (1).


def _odd_closed_walk(adj):
    """The vertices of an odd closed walk in the graph of neighbour sets
    ``adj``, each adjacent to the next and the last to the first; ``None``
    when the graph is bipartite.  A breadth-first search gives each vertex a
    depth and a parent; an edge between two vertices of one depth closes
    their tree paths up to the root they share into a walk of odd length."""
    depth, parent = [-1] * len(adj), [-1] * len(adj)
    for root in range(len(adj)):
        if depth[root] >= 0:
            continue
        depth[root], queue = 0, [root]
        for v in queue:
            for w in adj[v]:
                if depth[w] < 0:
                    depth[w], parent[w] = depth[v] + 1, v
                    queue.append(w)
                elif depth[w] == depth[v]:
                    down, up = [v], [w]
                    while parent[down[-1]] >= 0:
                        down.append(parent[down[-1]])
                        up.append(parent[up[-1]])
                    return down[::-1] + up[:-1]
    return None


def _is_odd_closed_walk(adj, walk):
    """True when ``walk`` is an odd closed walk in the graph of neighbour
    sets ``adj``, checked step by step; it holds an odd cycle, so chi >= 3."""
    n = len(adj)
    return len(walk) % 2 == 1 and all(
        0 <= v < n and w in adj[v] for v, w in zip(walk, walk[1:] + walk[:1]))


def _chi_bounds(inst, caps, cache, ell):
    """``(lo, hi, certified)`` with ``lo <= chi <= hi`` for the link graph at
    ``ell``, a length of the run, memoised: ``(chi, chi, False)`` from the
    oracle within the colouring cap, and beyond it the certificates above,
    with ``certified`` true; ``None`` where neither applies.  A certificate
    that fails its check raises ``WitnessInvalid``."""

    def solve():
        shape = cache.shape(inst, ell) if ell in caps.ell_range else None
        if shape is None:
            return None
        if shape[0] <= caps.chromatic_cap:
            chi = cache.chi(inst, ell)[0]
            return chi, chi, False
        if not all(cache.shape(inst, L) for L in range(ell % 2, ell, 2)):
            return None
        rec = cache.recursive(inst, ell)
        if not is_proper(rec.graph, rec.coloring):
            raise WitnessInvalid(f"certificate: recursive colouring not proper at ell={ell}")
        adj = rec.graph.adjacency()
        walk = _odd_closed_walk(adj)
        if walk is None:
            return 2 if any(adj) else min(len(adj), 1), rec.coloring.used(), True
        if not _is_odd_closed_walk(adj, walk):
            raise WitnessInvalid(f"certificate: not an odd closed walk at ell={ell}")
        return 3, rec.coloring.used(), True

    return cache._answer("chi bounds", inst, ell, solve)


def _check_parity_bound(inst, caps, cache, ell):
    chi = _chi_bounds(inst, caps, cache, ell)
    if chi is None:
        return "skip", "link graph beyond the chromatic oracle"
    lo, hi, certified = chi
    # the bounds of chromatic_upper_bounds, less the two-back bound no check
    # reads, from the base of this parity that the recursive colouring lifts
    rec = cache.recursive(inst, ell)
    exact, base = rec.exact_base, rec.base_value
    parity = _decay_bound(base, ell // 2)
    if not certified and exact and hi > parity:
        return "fail", f"chi {hi} > parity bound {parity}"
    if not certified and ell == 1 and exact and hi != base:
        return "fail", f"window-one chromatic {hi} differs from edge-chromatic {base}"
    # a certified interval has checked the recursive colouring already
    if not certified and rec.graph.n and not is_proper(rec.graph, rec.coloring):
        return "fail", "recursive colouring not proper"
    # the lifted palette honours the parity bound and, but at ell = 1, the
    # degree bound; the two-back bound holds for the exact value, not the palette
    bound = parity if ell == 1 else min(parity, inst.graph.max_degree() + 1)
    if exact and rec.coloring.t > bound:
        return "fail", f"recursive {rec.coloring.t} > bound {bound}"
    if not certified:
        return "pass", f"chi={hi} within parity bound {parity}"
    # certificate: the recursive colouring, and at ell = 1 a bound from
    # below that meets it
    if not (exact and hi <= parity and (ell != 1 or lo == hi == base)):
        return "skip", "link graph beyond the chromatic oracle"
    value = f"chi={hi}" if ell == 1 else f"chi <= {hi}"
    return "pass", f"certificate: {value} within parity bound {parity}"


def _check_degree_bound(inst, caps, cache, ell):
    chi = None if ell == 1 else _chi_bounds(inst, caps, cache, ell)
    bound = inst.graph.max_degree() + 1
    if chi is None or chi[2] and chi[1] > bound:
        return "skip", "not applicable or beyond oracle"
    _, hi, certified = chi
    if certified:
        return "pass", f"certificate: chi <= {hi} <= {bound}"
    if hi > bound:
        return "fail", f"chi {hi} > max degree + 1"
    return "pass", f"chi={hi} <= {bound}"


def _check_two_back(inst, caps, cache, ell):
    chi = None if ell < 2 else _chi_bounds(inst, caps, cache, ell)
    below = None if chi is None else _chi_bounds(inst, caps, cache, ell - 2)
    if below is None:
        return "skip", "needs both oracle values"
    (_, hi, certified), (lo, _, below_certified) = chi, below
    if not (certified or below_certified):
        if hi > lo:
            return "fail", f"chi rose: {hi} > {lo}"
        return "pass", f"{hi} <= {lo}"
    # certificate: chi at ell from above meets chi two back from below
    if hi <= lo:
        return "pass", f"certificate: chi <= {hi}, chi two back >= {lo}"
    return "skip", "needs both oracle values"


def _check_arc_chromatic(inst, caps, cache, ell):
    chi = None if ell < 1 else _chi_bounds(inst, caps, cache, ell)
    if chi is None:
        return "skip", "beyond oracle"
    lo, hi, certified = chi
    oracle = not certified and 2 * cache.count(inst, ell) <= caps.chromatic_cap
    skip = "beyond oracle" if certified else "arc digraph beyond oracle"
    cap = _arc_cap(caps.suite_links)
    if not oracle and 2 * cache.count(inst, ell + 1) > cap:
        return "skip", skip
    levels = cache.kernel(inst, {ell: cap, ell + 1: cap})
    # the arc digraph on kernel ids: each (ell + 1)-arc joins its parent and its suffix
    top = levels[ell + 1]
    if oracle:
        adj = _pair_adjacency(len(levels[ell].last), zip(top.parent, top.suffix))
        chi_a, _ = exact_chromatic(adj, None)
        if chi_a > hi:
            return "fail", f"arc chromatic {chi_a} > link chromatic"
        return "pass", f"{chi_a} <= {hi}"
    # certificate: each arc takes the colour of its link in the oracle's
    # colouring or the recursive one, checked on every edge of the arc digraph
    links = cache.recursive(inst, ell).coloring if certified else cache.chi(inst, ell)[1]
    colour = list(map(links.assignment.__getitem__, _link_ids(levels[ell])))
    if any(map(eq, map(colour.__getitem__, top.parent), map(colour.__getitem__, top.suffix))):
        raise WitnessInvalid(f"certificate: link colours not proper on the arcs at ell={ell}")
    used = len(set(colour))
    if used > lo:
        return "skip", skip
    return "pass", f"certificate: arc chromatic <= {used}, link chromatic >= {lo}"


def _over_three(inst, cache, ell):
    """The fail record of Cor1.2 and Cor4.4 where the recursive colouring at
    ``ell`` uses more than three colours, else ``None``."""
    _fits(cache.count(inst, ell))
    rec = cache.recursive(inst, ell)
    if rec.graph.n and rec.coloring.t > 3:
        return "fail", f"recursive colouring uses {rec.coloring.t} > 3"
    return None


def _check_three_colours(inst, caps, cache, ell):
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
    over = _over_three(inst, cache, ell)
    if over:
        return over
    chi = _chi_bounds(inst, caps, cache, ell)
    if chi is not None and chi[0] > 3:  # only the oracle's chi is above 3
        return "fail", f"exact chi {chi[0]} > 3"
    return "pass", f"three-colourable at length {ell}"


def _check_degree_threshold(inst, caps, cache, ell):
    delta = inst.graph.max_degree()
    if delta < 3 or ell <= 2 * math.log(delta - 2, 1.5) + 3:
        return "skip", "below the degree threshold"
    return _over_three(inst, cache, ell) or ("pass", "three colours beyond the degree threshold")


def _check_minors(inst, caps, cache, ell):
    dege = inst.graph.degeneracy()
    shape = _fits(cache.shape(inst, ell))
    if shape[1] == 0:
        return "skip", "link graph has no edge"
    H = cache.graph(inst, ell)
    res = cache.lower_bound(inst, ell)
    check = verify_minor(H, res.witness)
    if not check.ok:
        return "fail", f"witness invalid: {check.reason}"
    try:
        eta_g = cache.eta(inst)
    except OracleTooLarge:
        eta_g = None
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


def _check_hadwiger_conjecture(inst, caps, cache, ell):
    # the skips read only the size, so they build no level and no graph
    n, m = _fits(cache.shape(inst, ell))
    if n > caps.chromatic_cap:
        return "skip", "link graph beyond an oracle cap"
    chi, _ = cache.chi(inst, ell)
    if n <= caps.hadwiger_cap:
        eta = cache.eta(inst, ell)
        if eta < chi:
            return "fail", f"eta {eta} < chi {chi}"
        return "pass", f"eta {eta} >= chi {chi}"
    if ell < 1:
        return "skip", (f"link graph beyond the Hadwiger cap {caps.hadwiger_cap}; "
                        "no witness route at ell=0")
    if m == 0:
        return "skip", "link graph has no edge"
    res = cache.lower_bound(inst, ell)
    if res.bound < chi:
        return "fail", f"witnessed bound {res.bound} < chi {chi}"
    return "pass", f"witnessed bound {res.bound} >= chi {chi}"


def _check_path_graphs(inst, caps, cache, ell):
    G = inst.graph
    girth = cache._answer("girth", inst, None, G.girth)
    H = _fits(cache.graph(inst, ell))
    levels = cache.link_levels(inst, ell, ell + 1)
    vertex, label = _path_parts(G, levels, ell)
    if girth > max(ell, 2):
        # the path graph keeps every vertex and every edge, and is simple
        simple = sum(map(len, H.adjacency())) == 2 * H.m
        if 0 in vertex or 0 in label or not simple:
            return "fail", "path graph differs despite the girth bound"
        return "pass", f"equal to the link graph (girth {girth})"
    # induced subgraph of the simplification on the path vertices: every
    # pair of paths joined by an edge is joined by a path or a cycle
    if ell >= 2:
        top = levels[ell + 1]
        both = bytes(map(and_, map(vertex.__getitem__, top.parent),
                         map(vertex.__getitem__, top.suffix)))
        kept = bytes(map(and_, both, label))
        if kept != both:
            link_of = _link_ids(levels[ell])
            pairs = [frozenset(map(link_of.__getitem__, ends))
                     for ends in zip(top.parent, top.suffix)]
            if set(compress(pairs, kept)) != set(compress(pairs, both)):
                return "fail", "path graph is not the induced restriction"
    return "pass", "induced restriction verified"


def _check_digraph_iso(inst, caps, cache, ell):
    G = inst.graph
    count = cache.count(inst, ell)
    if count is None or count > 2000:
        return "skip", "beyond the iso-check budget"
    # digraph_natural_iso_check on the instance kernel
    cap = _arc_cap(caps.suite_links)
    levels = cache.kernel(inst, {ell: cap, ell + 1: cap})
    if _chains_match(G, levels, ell, cache.chain_digraph(inst, ell)):
        return "pass", "chain digraph isomorphic to the arc digraph"
    return "fail", "natural bijection is not an isomorphism"


# -- the claim table -------------------------------------------------------------


def _at(ell):
    """The arc lengths of the link graph at ``ell``."""
    return ell, ell + 1


def _up_to(ell):
    """The arc lengths of every link graph up to ``ell``, which the recursive
    colouring and the chromatic bounds read."""
    return 0, ell + 1


def _case(k):
    """The ``applies`` of Theorem 3's case ``k``: whether the case holds for
    an instance at ``ell``, from the cases computed once per (instance, ell)."""
    return lambda inst, cache, ell: k in cache._answer(
        "cases", inst, ell, lambda: _theorem3_cases(inst.graph, ell))


@dataclass(frozen=True)
class _Claim:
    """A row of the claim table.  Per instance, ``check(inst, caps, cache,
    ell)`` gives the ``(status, detail)`` of the claim's record at each of
    the lengths ``lengths(caps)`` from ``least`` on where ``applies(inst,
    cache, ell)`` holds; there it reads the arcs of the lengths ``reads(ell)``
    (the shortest and the longest) off the instance kernel.  A claim with no
    ``lengths`` is checked once per run."""

    name: str
    check: object
    reads: object = _up_to
    least: int = 0
    applies: object = None
    lengths: object = lambda caps: caps.ell_range


_CLAIMS = [
    _Claim("Obs3.1", _check_counting, _at),
    _Claim("Obs3.2", _check_bipartite_counts, _at, 1,
           lambda inst, cache, ell: inst.bipartite is not None and min(inst.bipartite) >= 2),
    _Claim("Obs3.3", _check_looplessness, _at),
    _Claim("Obs3.4", _check_multiplicity, _at, 1),
    # ell = 2h and 2h + 1 read the middle segments of lengths 2h to 2h + 2
    _Claim("Lem3.5", _check_hub_segments, lambda ell: (2 * (ell // 2), 2 * (ell // 2) + 2)),
    _Claim("Cor3.6", _check_same_middle, _at),
    _Claim("Lem3.7", _check_hub_shunting, _at),
    _Claim("Cor3.8", _check_hub_criterion, _at),
    _Claim("Lem4.1", _check_partition, lambda ell: (ell - 2, ell + 1), 2),
    _Claim("Lem4.2", _check_recolouring, lengths=None),
    _Claim("Thm1.1", _check_parity_bound, applies=lambda inst, cache, ell: ell % 2 == 0),
    _Claim("Thm1.2", _check_parity_bound, applies=lambda inst, cache, ell: ell % 2 == 1),
    _Claim("Thm1.3", _check_degree_bound, _at),
    _Claim("Thm1.4", _check_two_back),
    _Claim("ArcChrom", _check_arc_chromatic, _at),
    _Claim("Cor1.2", _check_three_colours),
    _Claim("Cor4.4", _check_degree_threshold),
    _Claim("Thm2", _check_minors, _at, lengths=lambda caps: caps.minor_ells),
    *(_Claim(f"Thm3.{k}", _check_hadwiger_conjecture, _at, applies=_case(k))
      for k in range(1, 6)),
    _Claim("PathGirth", _check_path_graphs, _at),
    _Claim("DigraphIso", _check_digraph_iso, _at, lengths=lambda caps: (1, 2, 3)),
]

ALL_CLAIMS = [claim.name for claim in _CLAIMS]

# the instance named in the records of the claims checked once per run
_BATTERY = CorpusInstance("random-battery", None)


def _kernel_span(plan):
    """The shortest and the longest arc length that the ``(ell, claim)``
    checks of ``plan`` read off the instance kernel."""
    spans = [claim.reads(ell) for ell, claim in plan]
    return (min(lo for lo, _ in spans), max(hi for _, hi in spans)) if spans else (0, 0)


def verify_suite(corpus=None, claims=None, caps=None, seeds=DEFAULT_SEEDS):
    """Run the selected claims over the corpus and assemble a report.  A
    ``claims`` entry selects every claim whose name starts with it; an entry
    that selects none raises ``InvalidParameter``.  Per instance, the claims
    are checked in table order, each length by length; consecutive rows that
    share a check take turns at each length."""
    caps = caps or Caps()
    corpus = corpus if corpus is not None else default_corpus(seeds)
    wanted = set(ALL_CLAIMS)
    if claims:
        prefixes = tuple(claims)
        for c in prefixes:
            if c not in wanted and not any(k.startswith(c) for k in ALL_CLAIMS):
                raise InvalidParameter(
                    f"unknown claim {c!r}; known claims: {', '.join(ALL_CLAIMS)}")
        wanted = {k for k in ALL_CLAIMS if k.startswith(prefixes)}
    rows = [claim for claim in _CLAIMS if claim.name in wanted]
    plan = []  # the (ell, claim) checks of each instance, in order
    for _, group in groupby(rows, attrgetter("check")):
        plan += sorted(((ell, claim) for claim in group if claim.lengths
                        for ell in claim.lengths(caps) if ell >= claim.least), key=itemgetter(0))
    report = Report(seeds)
    cache = _Cache(caps, _kernel_span(plan))
    for claim in rows:
        if claim.lengths is None:
            _timed(report.records, claim, _BATTERY, caps, cache, None)
    for inst in corpus:
        for ell, claim in plan:
            _timed(report.records, claim, inst, caps, cache, ell)
        cache.release()
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
