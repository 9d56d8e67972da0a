"""Canonical forms for small (multi)graphs via refinement plus backtracking.

Only intended for desk-scale instances (a few hundred vertices for the
refinement, ~a dozen for heavily symmetric inputs); the Hadwiger model search
memoizes on these keys.
"""

from __future__ import annotations


def _refine(n, nbrs, cols):
    """Iterated colour refinement on (colour, multiset of neighbour colours)."""
    while True:
        sigs = []
        for v in range(n):
            mult = {}
            for w, m in nbrs[v]:
                key = (cols[w], m)
                mult[key] = mult.get(key, 0) + 1
            sigs.append((cols[v], tuple(sorted(mult.items()))))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == cols:
            return cols
        cols = new


def canonical_key(n, edge_mult, colors=None):
    """Canonical certificate of a vertex-coloured multigraph.

    ``edge_mult`` maps index pairs ``(i, j)`` with ``i < j`` to multiplicities.
    Two graphs get equal keys iff they are isomorphic (respecting colours and
    multiplicities).
    """
    if n == 0:
        return (0,)
    nbrs = [[] for _ in range(n)]
    for (i, j), m in edge_mult.items():
        nbrs[i].append((j, m))
        nbrs[j].append((i, m))
    base = list(colors) if colors is not None else [0] * n
    ranking = {c: i for i, c in enumerate(sorted(set(base)))}
    base = [ranking[c] for c in base]

    mult_lookup = {}
    for (i, j), m in edge_mult.items():
        mult_lookup[(i, j)] = m
        mult_lookup[(j, i)] = m

    best = [None]

    def encode(cols):
        # vertices sorted by (colour, original index as tie) -- cols is discrete
        order = sorted(range(n), key=lambda v: cols[v])
        pos = {v: k for k, v in enumerate(order)}
        cells = tuple(base[v] for v in order)
        mat = []
        for a in range(n):
            for b in range(a + 1, n):
                va, vb = order[a], order[b]
                mat.append(mult_lookup.get((va, vb), 0))
        return (n, cells, tuple(mat))

    def search(cols):
        cols = _refine(n, nbrs, cols)
        cells = {}
        for v in range(n):
            cells.setdefault(cols[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                if target is None or len(cells[c]) < len(cells[target]):
                    target = c
        if target is None:
            cert = encode(cols)
            if best[0] is None or cert < best[0]:
                best[0] = cert
            return
        fresh = max(cols) + 1
        for v in cells[target]:
            child = list(cols)
            child[v] = fresh
            search(child)

    search(base)
    return best[0]


def multigraph_key(G, colors=None):
    """Canonical key of a :class:`~linkgraphs.multigraph.Multigraph`."""
    verts = list(G.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    mult = {}
    for eid, u, w in G.edges():
        i, j = idx[u], idx[w]
        pair = (i, j) if i < j else (j, i)
        mult[pair] = mult.get(pair, 0) + 1
    cols = None
    if colors is not None:
        cols = [colors[v] for v in verts]
    return canonical_key(len(verts), mult, cols)


def is_isomorphic(G, H):
    """Isomorphism of multigraphs (respecting edge multiplicities)."""
    if G.n != H.n or G.m != H.m:
        return False
    return multigraph_key(G) == multigraph_key(H)
