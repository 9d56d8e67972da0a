"""The name-indexed builders that ``Multigraph.adjacency()`` and the shared
component search replaced, kept as test oracles."""

from __future__ import annotations

from collections import deque


def name_index_adjacency(G):
    """The neighbour-index sets of a multigraph, indexed in ``G.vertices``
    order, built from its edges through a name-to-index dict: parallel edges
    collapse."""
    idx = {v: i for i, v in enumerate(G.vertices)}
    adj = [set() for _ in range(G.n)]
    for _, u, v in G.edges():
        adj[idx[u]].add(idx[v])
        adj[idx[v]].add(idx[u])
    return adj


def bfs_components(G):
    """The connected components of a multigraph as sorted lists of names,
    sorted by minimum: a breadth-first search over names from each vertex,
    in order, that no earlier search reached."""
    seen, comps = set(), []
    for start in G.vertices:
        if start in seen:
            continue
        dist = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for _, w in G.incident(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        seen.update(dist)
        comps.append(sorted(dist))
    return comps
