"""Reference colourings.

The saturation kernels as they were before saturation was kept
incrementally: ``greedy_coloring`` takes the most saturated vertex by a scan
of every uncoloured vertex, and ``exact_chromatic`` rebuilds each vertex's
set of neighbour colours at every search node.  The package's kernels must
give the same colourings.

Recursive colouring: the link graph of every length of the
recursion built on its own with ``link_graph``, each middle segment found
through ``Link.middle_segment`` and the index of the graph two shorter, and
each lift made by the public ``lift_coloring``, which checks every colouring
it reads and writes.

The package reads all those link graphs off one build of the arc kernel; the
tests check that both give the same graph, colouring and errors.
"""

from __future__ import annotations

from linkgraphs.coloring import (
    DEFAULT_CHROMATIC_CAP,
    Coloring,
    RecursiveColoring,
    _base_coloring,
    _greedy_clique,
    exact_edge_chromatic,
    lift_coloring,
)
from linkgraphs.construction import index_adjacency, link_graph
from linkgraphs.errors import InvalidParameter, OracleTooLarge


def recursive_chromatic_bound(G, ell, cap=DEFAULT_CHROMATIC_CAP, limit=None):
    """Colour the base link graph, then lift two lengths at a time."""
    if ell < 0:
        raise InvalidParameter(f"ell must be >= 0, got {ell}")
    H = link_graph(G, ell % 2, limit)
    rec = _base_coloring(G, H, lambda: exact_edge_chromatic(G, cap) if ell % 2 else
                         exact_chromatic(H, cap))
    for length in range(ell % 2 + 2, ell + 1, 2):
        H = link_graph(G, length, limit)
        col = Coloring({}, 0) if H.n == 0 else lift_coloring(
            G, length, rec.graph, rec.coloring, upper=H)
        rec = RecursiveColoring(length, H, col, rec.exact_base, rec.base_kind, rec.base_value)
    return rec


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
