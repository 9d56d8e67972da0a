"""Proper colourings: exact oracles, the class-by-class recolouring pass, and
the recursive two-step colouring of link graphs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .construction import LabeledGraph, _windows_graph, index_adjacency, link_graph
from .errors import (
    InvalidParameter,
    OracleTooLarge,
    PartialColoring,
    PreconditionViolated,
    WitnessInvalid,
)
from .links import _kernel, _link_cap, _link_ids, _middle_ids

DEFAULT_CHROMATIC_CAP = 64


@dataclass(frozen=True)
class Coloring:
    """Vertex colouring over palette ``[1..t]`` keyed by vertex index."""

    assignment: dict
    t: int

    def used(self):
        return len(set(self.assignment.values()))

    def max_color(self):
        return max(self.assignment.values(), default=0)

    def to_json(self, H=None):
        if H is None:
            data = {str(k): v for k, v in self.assignment.items()}
        else:
            data = {str(H.vertices[k]): v for k, v in self.assignment.items()}
        return json.dumps(data, indent=2, sort_keys=True)


@dataclass(frozen=True)
class EdgeColoring:
    """Edge colouring keyed by edge id."""

    assignment: dict
    t: int

    def used(self):
        return len(set(self.assignment.values()))


def is_proper(H, coloring):
    """True iff no edge is monochromatic; the assignment must be total."""
    adj = index_adjacency(H)
    n = len(adj)
    assign = coloring.assignment
    if len(assign) != n or any(i not in assign for i in range(n)):
        raise PartialColoring(f"assignment covers {len(assign)} of {n} vertices")
    for i in range(n):
        ci = assign[i]
        for j in adj[i]:
            if j > i and assign[j] == ci:
                return False
    return True


def greedy_coloring(adj):
    """First-fit colouring in saturation order (most distinct neighbour
    colours, then degree, then least index): ``(colours used, colouring)``."""
    n = len(adj)
    sat = [set() for _ in range(n)]
    colors = {}
    uncolored = set(range(n))
    while uncolored:
        v = max(uncolored, key=lambda x: (len(sat[x]), len(adj[x]), -x))
        used = {colors[w] for w in adj[v] if w in colors}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
        uncolored.discard(v)
        for w in adj[v]:
            sat[w].add(c)
    return max(colors.values(), default=0), colors


def _greedy_clique(adj):
    """A maximal clique grown from the highest-degree vertex (lower bound)."""
    n = len(adj)
    if n == 0:
        return []
    start = max(range(n), key=lambda v: (len(adj[v]), -v))
    clique = [start]
    candidates = sorted(adj[start], key=lambda v: (-len(adj[v]), v))
    for v in candidates:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def exact_chromatic(H, cap=DEFAULT_CHROMATIC_CAP):
    """Exact chromatic number with a witness, by saturation branch and bound.

    Deterministic: ties break on vertex index.  Parallel edges are irrelevant
    for properness and are collapsed by the adjacency view.
    """
    adj = index_adjacency(H)
    n = len(adj)
    if cap is not None and n > cap:
        raise OracleTooLarge(n, cap)
    if n == 0:
        return 0, Coloring({}, 0)
    if all(not a for a in adj):
        return 1, Coloring({i: 1 for i in range(n)}, 1)

    ub, best = greedy_coloring(adj)
    clique = _greedy_clique(adj)
    lb = len(clique)
    if lb >= ub:
        return ub, Coloring(best, ub)

    best_k = ub
    best_assign = dict(best)
    colors = {}

    def choose():
        pick, key = None, None
        for v in range(n):
            if v in colors:
                continue
            sat = len({colors[w] for w in adj[v] if w in colors})
            k2 = (sat, len(adj[v]), -v)
            if key is None or k2 > key:
                pick, key = v, k2
        return pick

    def branch(used_k):
        nonlocal best_k, best_assign
        if used_k >= best_k:
            return
        v = choose()
        if v is None:
            best_k = used_k
            best_assign = dict(colors)
            return
        seen = {colors[w] for w in adj[v] if w in colors}
        for c in range(1, min(used_k + 1, best_k - 1) + 1):
            if c in seen:
                continue
            colors[v] = c
            branch(max(used_k, c))
            del colors[v]
            if best_k <= max(lb, 1):
                return

    # seed the clique to cut symmetry; a clique needs pairwise distinct colours
    for i, v in enumerate(clique):
        colors[v] = i + 1
    branch(len(clique))
    for i, v in enumerate(clique):
        del colors[v]
    return best_k, Coloring(best_assign, best_k)


def exact_edge_chromatic(G, cap=DEFAULT_CHROMATIC_CAP):
    """Exact edge-chromatic number via the edge-conflict graph."""
    eids = list(G.edge_ids)
    if cap is not None and len(eids) > cap:
        raise OracleTooLarge(len(eids), cap)
    adj = [set() for _ in eids]
    pos = {e: i for i, e in enumerate(eids)}
    for v in G.vertices:
        inc = [e for e, _ in G.incident(v)]
        for a in range(len(inc)):
            for b in range(a + 1, len(inc)):
                i, j = pos[inc[a]], pos[inc[b]]
                adj[i].add(j)
                adj[j].add(i)
    chi, col = exact_chromatic(adj, cap=None)
    delta = G.max_degree()
    if G.m and not delta <= chi <= max(delta, math.floor(1.5 * delta)):
        raise WitnessInvalid(f"edge-chromatic number {chi} outside the Vizing-Shannon "
                             f"range for maximum degree {delta}")
    return chi, EdgeColoring({eids[i]: c for i, c in col.assignment.items()}, chi)


def reduce_coloring(H, coloring, r):
    """Recolour classes from the top down; output stays proper and uses at
    most ``floor(t*r/(r+1)) + 1`` colours.

    Precondition: every vertex sees at most ``r`` distinct foreign colours.
    For ``t <= r + 1`` the input is returned unchanged (the bound equals t).
    """
    adj = index_adjacency(H)
    n = len(adj)
    if r < 0:
        raise InvalidParameter(f"r must be >= 0, got {r}")
    if not is_proper(adj, coloring):
        raise PreconditionViolated("input colouring is not proper")
    assign = coloring.assignment
    for v in range(n):
        foreign = {assign[w] for w in adj[v]}
        if len(foreign) > r:
            raise PreconditionViolated(
                f"vertex {v} sees {len(foreign)} foreign colours > r={r}"
            )
    return _recolour(adj, coloring, r)


def _recolour(adj, coloring, r):
    """``reduce_coloring`` on the neighbour sets ``adj`` once its
    preconditions are checked; the output is still checked."""
    t = coloring.t
    assign = coloring.assignment
    if t <= r + 1:
        return Coloring(dict(assign), t)

    col = dict(assign)
    classes = {}
    for v in range(len(adj)):
        classes.setdefault(assign[v], []).append(v)
    for j in range(1, t + 1):
        cls = t - j + 1
        for u in sorted(classes.get(cls, ())):
            neighbour_colors = {col[w] for w in adj[u]}
            s = 1
            while s in neighbour_colors:
                s += 1
            if s < cls:
                col[u] = s

    t_out = (t * r) // (r + 1) + 1
    out = Coloring(col, t_out)
    if out.max_color() > t_out:
        raise WitnessInvalid("recolouring exceeded its bound")
    if not is_proper(adj, out):
        raise WitnessInvalid("recolouring broke properness")
    if out.used() > coloring.used():
        raise WitnessInvalid("recolouring increased colour count")
    return out


def lift_coloring(G, ell, lower, coloring, upper=None, limit=None):
    """Colour each link by the colour of its middle segment two levels down,
    then recolour with ``r = 2``.

    ``lower`` is the link graph two shorter; ``coloring`` must be proper on it.
    """
    if ell < 2:
        raise InvalidParameter(f"lift needs ell >= 2, got {ell}")
    if upper is None:
        upper = link_graph(G, ell, limit)
    if not is_proper(lower, coloring):
        raise PreconditionViolated("lower colouring is not proper")
    middle = (lower.index[link.middle_segment(ell - 2)] for link in upper.vertices)
    lifted = _transfer(coloring, middle)
    if not is_proper(upper, lifted):
        raise PreconditionViolated("lifted colouring is not proper")
    return reduce_coloring(upper, lifted, 2)


def _transfer(coloring, middle):
    """Give vertex ``i`` the colour of vertex ``middle[i]`` under ``coloring``."""
    return Coloring(dict(enumerate(map(coloring.assignment.__getitem__, middle))), coloring.t)


def _check_lifted(adj, assign):
    """``reduce_coloring``'s preconditions for ``r = 2`` in one scan of the
    neighbour sets ``adj``: the lifted colouring ``assign`` is total and
    proper, and no vertex sees more than two foreign colours."""
    if len(assign) != len(adj):
        raise PartialColoring(f"assignment covers {len(assign)} of {len(adj)} vertices")
    for v, nbrs in enumerate(adj):
        foreign = set(map(assign.__getitem__, nbrs))
        if assign[v] in foreign:
            raise PreconditionViolated("lifted colouring is not proper")
        if len(foreign) > 2:
            raise PreconditionViolated(f"vertex {v} sees {len(foreign)} foreign colours > r=2")


def _lift_once(coloring, middle, adj):
    """Lift ``coloring`` through ``middle`` onto the graph with neighbour sets
    ``adj``, check the lifted colouring in one scan (``_check_lifted``) and
    recolour it with ``r = 2``; the output is checked by ``_recolour``."""
    lifted = _transfer(coloring, middle)
    _check_lifted(adj, lifted.assignment)
    return _recolour(adj, lifted, 2)


@dataclass
class RecursiveColoring:
    ell: int
    graph: LabeledGraph
    coloring: Coloring
    exact_base: bool
    base_kind: str  # "chromatic" or "edge-chromatic"
    base_value: int

    @property
    def bound(self):
        return self.coloring.t


def recursive_chromatic_bound(G, ell, cap=DEFAULT_CHROMATIC_CAP, limit=None):
    """Colour the ``ell``-link graph by repeated lifting from the base case.

    Base cases: length 0 uses the exact chromatic oracle on the graph itself,
    length 1 transports an optimal edge colouring; graphs beyond the oracle
    cap fall back to greedy and are flagged via ``exact_base``.

    Every link graph of the recursion is read off one kernel build, which
    checks ``limit`` at each length in increasing order, as building the link
    graphs one by one would.  The graphs hold kernel ids, and no ``Link`` is
    made unless a caller reads one; the middle segment of a link is the
    suffix of its parent.

    Each lifted colouring is checked in one scan of its graph, for properness
    and for the recolouring's bound of two foreign colours (``_check_lifted``).
    The base colouring is checked at the first lift; every later lower
    colouring is the output of the lift before, which checked it.
    """
    if ell < 0:
        raise InvalidParameter(f"ell must be >= 0, got {ell}")
    base = ell % 2
    # with ell = base no level at or above the base is pruned
    levels = _kernel(G, base, {L: _link_cap(L, limit) for L in range(base, ell + 2)})
    rec = _base_coloring(G, _windows_graph(G, base, levels), cap,
                         lambda: exact_edge_chromatic(G, cap))
    graph, col = rec.graph, rec.coloring
    for length in range(base + 2, ell + 1, 2):
        middle = _middle_ids(levels, length, _link_ids(levels[length - 2]))
        upper = _windows_graph(G, length, levels)
        if not middle:
            col = Coloring({}, 0)
        else:
            # a later lower colouring is the output of the lift before, checked there
            if length == base + 2 and not is_proper(graph, col):
                raise PreconditionViolated("lower colouring is not proper")
            col = _lift_once(col, middle, upper.adjacency())
        graph = upper
    return RecursiveColoring(ell, graph, col, rec.exact_base, rec.base_kind, rec.base_value)


def _base_coloring(G, H, cap, solve_edge):
    """The recursive colouring of the link graph ``H`` of ``G`` at length 0 or
    1; ``solve_edge()`` gives ``exact_edge_chromatic`` of ``G``, or raises
    what it raises."""
    if H.ell == 0:
        try:
            chi, col = exact_chromatic(H, cap)
            exact = True
        except OracleTooLarge:
            k, colors = greedy_coloring(H.adjacency())
            chi, col = k, Coloring(colors, max(k, 1) if H.n else 0)
            exact = False
        return RecursiveColoring(0, H, col, exact, "chromatic", chi)
    try:
        chi_p, ecol = solve_edge()
        exact = True
        assign = {i: ecol.assignment[link.units[1]] for i, link in enumerate(H.vertices)}
        col = Coloring(assign, chi_p)
    except OracleTooLarge:
        k, colors = greedy_coloring(H.adjacency())
        col = Coloring(colors, max(k, 1) if H.n else 0)
        chi_p = col.t
        exact = False
    if not is_proper(H, col):
        raise WitnessInvalid("edge colouring transported to the line graph is not proper")
    return RecursiveColoring(1, H, col, exact, "edge-chromatic", chi_p)


def _lifted(G, below, H, middle):
    """The recursive colouring of the link graph ``H`` of ``G``, lifted from
    ``below``, the recursive colouring two levels down, with the checks of
    ``recursive_chromatic_bound``: the base colouring is checked when it is
    lifted, and a colouring lifted before was checked by that lift.
    ``middle[i]`` is the index in ``below.graph`` of the middle segment of
    vertex ``i`` of ``H`` (``_middle_ids``)."""
    if H.n == 0:
        col = Coloring({}, 0)
    else:
        if below.ell < 2 and not is_proper(below.graph, below.coloring):
            raise PreconditionViolated("lower colouring is not proper")
        col = _lift_once(below.coloring, middle, H.adjacency())
    return RecursiveColoring(H.ell, H, col, below.exact_base, below.base_kind,
                             below.base_value)


@dataclass
class ChromaticBounds:
    """The applicable upper bounds for the chromatic number of a link graph."""

    ell: int
    chi: int | None  # chromatic number of the base graph (even case)
    chi_prime: int | None  # edge-chromatic number (odd case)
    exact_chi: bool
    exact_chi_prime: bool
    parity_bound: int | None  # geometric-decay bound from the matching base
    max_degree_bound: int | None  # Delta + 1, absent for ell == 1
    two_back_bound: int | None  # chromatic number two levels down, if oracle-sized

    def applicable(self):
        out = {}
        if self.parity_bound is not None:
            out["parity"] = self.parity_bound
        if self.max_degree_bound is not None:
            out["max_degree"] = self.max_degree_bound
        if self.two_back_bound is not None:
            out["two_back"] = self.two_back_bound
        return out

    def minimum(self):
        vals = self.applicable().values()
        return min(vals) if vals else None


def _decay_bound(base, steps):
    """min(base, floor((2/3)^steps * (base - 3)) + 3), exact in rationals."""
    num, den = 2**steps, 3**steps
    decayed = math.floor(num * (base - 3) / den) + 3
    return min(base, decayed)


def chromatic_upper_bounds(G, ell, cap=DEFAULT_CHROMATIC_CAP, limit=None):
    """Evaluate every applicable closed-form bound for reporting."""
    bounds = _chromatic_bounds(G, ell, lambda length: link_graph(G, length, limit),
                               lambda H: exact_chromatic(H, cap)[0],
                               lambda: exact_edge_chromatic(G, cap)[0])
    if ell >= 2:
        try:
            bounds.two_back_bound, _ = exact_chromatic(link_graph(G, ell - 2, limit), cap)
        except OracleTooLarge:
            pass
    return bounds


def _chromatic_bounds(G, ell, graph, solve_chi, solve_chi_prime):
    """``chromatic_upper_bounds`` without the two-back bound.  ``graph(length)``
    gives the link graph at length 0 or 1, ``solve_chi(H)`` the exact
    chromatic number of the one at 0, and ``solve_chi_prime()`` the exact
    edge-chromatic number of ``G``; they raise what the oracles and
    ``link_graph`` raise."""
    even = ell % 2 == 0
    if even:
        H = graph(0)
        try:
            base, exact = solve_chi(H), True
        except OracleTooLarge:
            base, exact = greedy_coloring(H.adjacency())[0], False
    else:
        try:
            base, exact = solve_chi_prime(), True
        except OracleTooLarge:
            base, exact = greedy_coloring(graph(1).adjacency())[0], False
    chi, chi_prime = (base, None) if even else (None, base)
    delta_bound = G.max_degree() + 1 if ell != 1 else None
    return ChromaticBounds(ell, chi, chi_prime, exact and even, exact and not even,
                           _decay_bound(base, ell // 2), delta_bound, None)
