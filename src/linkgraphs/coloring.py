"""Proper colourings: exact oracles, the class-by-class recolouring pass, and
the recursive two-step colouring of link graphs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import and_, eq, ne

from .construction import LabeledGraph, _pair_adjacency, _windows_graph, index_adjacency, link_graph
from .errors import (
    InvalidParameter,
    OracleTooLarge,
    PartialColoring,
    PreconditionViolated,
    WitnessInvalid,
)
from .links import _keep_for_links, _middle_ids, _recursion_kernel

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
    """True iff no edge is monochromatic; the assignment must be total.

    A ``LabeledGraph`` is read off its edge ends in either order
    (``_pairs``), with no neighbour sets built and no sort; a loop is
    ignored, as ``index_adjacency`` drops it."""
    labeled = isinstance(H, LabeledGraph)
    adj = None if labeled else index_adjacency(H)
    n = H.n if labeled else len(adj)
    assign = coloring.assignment
    _check_total(assign, n)
    if labeled:
        tails, heads = H._pairs()
        color = assign.__getitem__
        return not any(map(and_, map(ne, tails, heads), map(eq, map(color, tails), map(color, heads))))
    for i in range(n):
        ci = assign[i]
        for j in adj[i]:
            if j > i and assign[j] == ci:
                return False
    return True


def _check_total(assign, n):
    """Raise ``PartialColoring`` unless ``assign`` colours exactly ``0..n-1``."""
    if len(assign) != n or not all(map(assign.__contains__, range(n))):
        raise PartialColoring(f"assignment covers {len(assign)} of {n} vertices")


def _saturation_scores(adj):
    """``(step, scores)``: the saturation order key ``(distinct neighbour
    colours, degree, -index)`` of each vertex of ``adj`` as one integer, at
    no colour seen, and ``step``, which one more distinct neighbour colour
    adds.  Degree and index fill the digits below ``step``, so the integers
    order the vertices as the keys do, and a vertex is its score's residue:
    ``v = n - 1 - score % n``."""
    n = len(adj)
    degrees = list(map(len, adj))
    step = n * (max(degrees, default=0) + 1)
    return step, [d * n + n - 1 - v for v, d in enumerate(degrees)]


def greedy_coloring(adj):
    """First-fit colouring in saturation order (most distinct neighbour
    colours, then degree, then least index): ``(colours used, colouring)``.

    Each score only rises, so the vertices wait in a max-heap that gets one
    more entry per rise; an entry below its vertex's score is stale and
    skipped.  O((n + m) log n)."""
    n = len(adj)
    step, score = _saturation_scores(adj)
    heap = [-s for s in score]
    heapify(heap)
    sat = [set() for _ in range(n)]
    colors = {}
    while heap:
        s = -heappop(heap)
        v = n - 1 - s % n
        if s != score[v]:
            continue
        used = sat[v]
        c = 1
        while c in used:
            c += 1
        colors[v] = c
        for w in adj[v]:
            if c not in sat[w] and w not in colors:
                sat[w].add(c)
                score[w] += step
                heappush(heap, -score[w])
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

    Saturation is kept up to date as vertices are coloured and uncoloured:
    a search node picks its vertex by one pass over the uncoloured vertices'
    scores, and each colour tried updates only that vertex's neighbours, so
    a node costs O(n + degree) rather than a rebuild of every neighbour-colour
    set.
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
    uncolored = set(range(n))
    # per vertex, {colour: coloured neighbours of that colour} and its
    # saturation score, both kept up to date as colours come and go
    seen = [{} for _ in range(n)]
    step, score = _saturation_scores(adj)

    def paint(v, c):
        colors[v] = c
        for w in adj[v]:
            counts = seen[w]
            k = counts.get(c, 0)
            if not k:
                score[w] += step
            counts[c] = k + 1

    def unpaint(v, c):
        del colors[v]
        for w in adj[v]:
            counts = seen[w]
            k = counts[c]
            if k == 1:
                del counts[c]
                score[w] -= step
            else:
                counts[c] = k - 1

    def branch(used_k):
        nonlocal best_k, best_assign
        if used_k >= best_k:
            return
        if not uncolored:
            best_k = used_k
            best_assign = dict(colors)
            return
        v = max(uncolored, key=score.__getitem__)
        skip = seen[v]
        uncolored.remove(v)
        for c in range(1, min(used_k + 1, best_k - 1) + 1):
            if c in skip:
                continue
            paint(v, c)
            branch(max(used_k, c))
            unpaint(v, c)
            if best_k <= max(lb, 1):
                break
        uncolored.add(v)

    # seed the clique to cut symmetry; a clique needs pairwise distinct colours
    for i, v in enumerate(clique):
        paint(v, i + 1)
        uncolored.remove(v)
    branch(len(clique))
    return best_k, Coloring(best_assign, best_k)


def exact_edge_chromatic(G, cap=DEFAULT_CHROMATIC_CAP):
    """Exact edge-chromatic number via the edge-conflict graph."""
    eids = list(G.edge_ids)
    if cap is not None and len(eids) > cap:
        raise OracleTooLarge(len(eids), cap)
    pos = {e: i for i, e in enumerate(eids)}
    conflicts = (pair for v in G.vertices
                 for pair in combinations([pos[e] for e, _ in G.incident(v)], 2))
    chi, col = exact_chromatic(_pair_adjacency(len(eids), conflicts), cap=None)
    delta = G.max_degree()
    if G.m and not delta <= chi <= max(delta, math.floor(1.5 * delta)):
        raise WitnessInvalid(f"edge-chromatic number {chi} outside the Vizing-Shannon "
                             f"range for maximum degree {delta}")
    return chi, EdgeColoring({eids[i]: c for i, c in col.assignment.items()}, chi)


def reduce_coloring(H, coloring, r):
    """Recolour classes from the top down; output stays proper and uses at
    most ``floor(t*r/(r+1)) + 1`` colours.

    Preconditions: the input is proper, and every vertex sees at most ``r``
    distinct foreign colours (checked by ``_recolour``).  For ``t <= r + 1``
    the input is returned unchanged (the bound equals t).
    """
    adj = index_adjacency(H)
    if adj is H:  # a raw list may hold a loop, which is_proper ignores too
        adj = [{w for w in nbrs if w != v} for v, nbrs in enumerate(adj)]
    if r < 0:
        raise InvalidParameter(f"r must be >= 0, got {r}")
    if not is_proper(adj, coloring):
        raise PreconditionViolated("input colouring is not proper")
    return _recolour(adj, coloring, r)


def _recolour(adj, coloring, r, improper=None):
    """``reduce_coloring`` on the neighbour sets ``adj`` of a graph that
    ``coloring`` colours properly.  The bound of ``r`` foreign colours a
    vertex is checked here, also where the input is returned unchanged, and
    the output is checked too.  With ``improper`` given, the same first scan
    checks that the input is total and proper, and raises
    ``PreconditionViolated(improper)`` if it is not, before any bound."""
    assign = coloring.assignment
    if improper is not None:
        _check_total(assign, len(adj))
    crowded = None
    for v, nbrs in enumerate(adj):
        foreign = set(map(assign.__getitem__, nbrs))
        if improper is not None and assign[v] in foreign:
            raise PreconditionViolated(improper)
        if crowded is None and len(foreign) > r:
            crowded = f"vertex {v} sees {len(foreign)} foreign colours > r={r}"
    if crowded is not None:
        raise PreconditionViolated(crowded)
    t = coloring.t
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
    middle = [lower.index[link.middle_segment(ell - 2)] for link in upper.vertices]
    return _lift(coloring, [middle], upper)


def _lift(coloring, middles, H):
    """The colouring of the link graph ``H`` lifted from ``coloring``, a
    proper colouring of a shorter one, and recoloured with ``r = 2``.

    ``middles`` holds one table per lift of two lengths, from the shortest
    up: entry ``i`` of a table is the index, two lengths down, of the middle
    segment of link ``i``.  Each link takes the colour of its middle segment
    through every table in turn.  The lifted colouring is checked once:
    with at most three colours by ``is_proper`` on the edge ends of ``H``,
    and the recolouring keeps it as it is, since a vertex of a proper
    colouring sees at most two foreign colours, so several lifts may be
    taken at once; with more, ``middles`` holds one table, and the first
    scan of ``_recolour`` over the neighbour sets of ``H`` checks it."""
    colors = coloring.assignment
    for middle in middles:
        colors = list(map(colors.__getitem__, middle))
    lifted = Coloring(dict(enumerate(colors)), coloring.t)
    if coloring.t > 3:
        return _recolour(H.adjacency(), lifted, 2, "lifted colouring is not proper")
    if not is_proper(H, lifted):
        raise PreconditionViolated("lifted colouring is not proper")
    return lifted


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

    Every link graph the recursion builds is read off one kernel build,
    which checks ``limit`` at each length in increasing order, as building
    the link graphs one by one would.  The graphs hold kernel ids, and no
    ``Link`` is made unless a caller reads one; the middle segment of a link
    is the suffix of its parent.

    A palette of more than three colours is lifted two lengths, checked and
    recoloured (``_lift``).  Once it has at most three colours the
    recolouring keeps every colouring as it is, so the colours are carried
    straight up to the ``ell``-link graph through the middle ids of each
    length between, no graph between is built, and the top colouring is
    checked once, on the edge ends of its graph.

    A length past the last one with an arc has no link: its colouring is
    empty, and it is answered from the base colouring with no level built
    above the base, so a huge ``ell`` costs no more than the lengths with
    arcs.
    """
    if ell < 0:
        raise InvalidParameter(f"ell must be >= 0, got {ell}")
    levels, top = _recursion_kernel(G, ell, limit)
    solve = exact_edge_chromatic if ell % 2 else exact_chromatic
    rec = _base_coloring(G, _windows_graph(G, ell % 2, levels), lambda: solve(G, cap))
    while rec.ell < top:
        length = top if rec.coloring.t <= 3 else rec.ell + 2
        rec = _lifted(rec, _windows_graph(G, length, levels), levels)
    _keep_for_links(levels)
    return rec if top == ell else _lifted(rec, LabeledGraph(ell, (), (), G), levels)


def _base_coloring(G, H, solve):
    """The recursive colouring of the link graph ``H`` of ``G`` at length 0 or
    1, checked to be proper.  ``solve()`` gives the exact solve of that
    parity, ``exact_chromatic`` or ``exact_edge_chromatic`` of ``G``, or
    raises what it raises; past its cap the colouring is greedy.

    At length 0 the links are the vertices of ``G`` in order, so a colouring
    of ``G`` is one of ``H``.  At length 1 the links are the canonical
    1-arcs, which are the darts that come before their twins, in dart order;
    each takes the colour of its edge."""
    try:
        value, col = solve()
        if H.ell == 1:
            D = G.darts()
            edges = (eid for d, ((eid, _), t) in enumerate(zip(D.steps, D.twin)) if d < t)
            col = Coloring(dict(enumerate(map(col.assignment.__getitem__, edges))), value)
        exact = True
    except OracleTooLarge:
        value, colors = greedy_coloring(H.adjacency())
        col, exact = Coloring(colors, value), False
    if not is_proper(H, col):
        raise WitnessInvalid("base colouring is not proper" if H.ell == 0 else
                             "edge colouring transported to the line graph is not proper")
    return RecursiveColoring(H.ell, H, col, exact, "edge-chromatic" if H.ell else "chromatic",
                             value)


def _lifted(below, H, levels):
    """The recursive colouring of the link graph ``H`` lifted from ``below``,
    a checked recursive colouring of a shorter one of the same parity, through
    the ``_middle_ids`` of ``levels`` at each length between (``_lift``)."""
    col = Coloring({}, 0) if H.n == 0 else _lift(
        below.coloring, [_middle_ids(levels, L) for L in range(below.ell + 2, H.ell + 1, 2)], H)
    return RecursiveColoring(H.ell, H, col, below.exact_base, below.base_kind, below.base_value)


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


def _decay_bound(base, steps):
    """min(base, floor((2/3)^steps * (base - 3)) + 3), exact in rationals."""
    num, den = 2**steps, 3**steps
    decayed = math.floor(num * (base - 3) / den) + 3
    return min(base, decayed)


def chromatic_upper_bounds(G, ell, cap=DEFAULT_CHROMATIC_CAP, limit=None):
    """Evaluate every applicable closed-form bound for reporting."""
    even = ell % 2 == 0
    H = link_graph(G, 0, limit) if even else None
    try:
        base = (exact_chromatic(H, cap) if even else exact_edge_chromatic(G, cap))[0]
        exact = True
    except OracleTooLarge:
        H = H if even else link_graph(G, 1, limit)
        base, exact = greedy_coloring(H.adjacency())[0], False
    two_back = None
    if ell >= 2:
        try:
            two_back, _ = exact_chromatic(link_graph(G, ell - 2, limit), cap)
        except OracleTooLarge:
            pass
    return ChromaticBounds(ell, base if even else None, None if even else base,
                           exact and even, exact and not even, _decay_bound(base, ell // 2),
                           G.max_degree() + 1 if ell != 1 else None, two_back)
