"""Shared hypothesis strategies for property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from linkgraphs.multigraph import Multigraph


@st.composite
def multigraphs(draw, max_n=6, max_m=9):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    pairs = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        if v >= u:
            v += 1
        pairs.append((u, v))
    verts = [f"v{i}" for i in range(n)]
    edges = [(f"e{k}", f"v{u}", f"v{v}") for k, (u, v) in enumerate(pairs, start=1)]
    return Multigraph(verts, edges)


@st.composite
def simple_adjacencies(draw, max_n=12):
    """Neighbour-index sets of a simple graph on up to ``max_n`` vertices,
    as dense as a multigraph's link graph is sparse."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=n * (n - 1) // 2))
    adj = [set() for _ in range(n)]
    for a, b in pairs:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj
