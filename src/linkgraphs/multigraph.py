"""Loopless undirected multigraphs with stable string identifiers.

Vertex and edge ids are plain strings ordered lexicographically; that order
drives every deterministic enumeration downstream.  Graphs are immutable
after construction.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple

from .errors import (
    InvalidParameter,
    LoopRejected,
    MalformedLine,
    UnknownEdge,
    UnknownVertex,
)

INFINITE = math.inf

Darts = namedtuple("Darts", "start tail head twin steps")
Darts.__doc__ = """The 2m darts (edge orientations) of a multigraph as tuples.

Darts are numbered in ``vertices`` x ``incident()`` order, so the darts
leaving vertex index ``v`` are ``range(start[v], start[v + 1])`` and dart
order is the lexicographic order of ``(tail, edge, head)``.  ``twin[d]`` is
``d`` reversed and ``steps[d]`` is its ``(edge_id, head)`` unit pair.
"""


def _successor_table(D):
    """:meth:`Multigraph.successors` of the darts ``D``."""
    outs = [tuple(range(lo, hi)) for lo, hi in zip(D.start, D.start[1:])]
    return tuple(outs[h][: t - D.start[h]] + outs[h][t - D.start[h] + 1 :]
                 for h, t in zip(D.head, D.twin))


def _bfs_path(starts, target, steps):
    """Units ``(v0, s1, v1, ..., vk)`` of a shortest path from one of
    ``starts`` to ``target``, where ``steps(v)`` gives the ``(step, w)``
    pairs that lead on from ``v``; None if there is none.

    Breadth-first from the starts in the order given; the first discovery of
    a vertex fixes its parent, which breaks ties, and the target is tested
    when it is discovered."""
    parent = dict.fromkeys(starts)
    if target in parent:
        return (target,)
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        for step, w in steps(v):
            if w in parent:
                continue
            parent[w] = (v, step)
            if w == target:
                units = [w]
                while parent[w] is not None:
                    w, step = parent[w]
                    units += (step, w)
                return tuple(reversed(units))
            queue.append(w)
    return None


class Multigraph:
    """Finite undirected multigraph without loops; parallel edges allowed."""

    __slots__ = ("_vertices", "_endpoints", "_adj", "_vset", "_darts", "_succ", "_peel",
                 "_comps")

    def __init__(self, vertices=(), edges=()):
        """Build from vertex names and an iterable of ``(edge_id, u, v)``."""
        vs = {str(v) for v in vertices}
        endpoints = {}
        for eid, u, v in edges:
            eid, u, v = str(eid), str(u), str(v)
            if u == v:
                raise LoopRejected(detail=f"edge {eid!r} joins {u!r} to itself")
            if eid in endpoints:
                raise InvalidParameter(f"duplicate edge id {eid!r}")
            endpoints[eid] = (u, v)
            vs.add(u)
            vs.add(v)
        self._vertices = tuple(sorted(vs))
        self._vset = frozenset(self._vertices)
        self._endpoints = {eid: endpoints[eid] for eid in sorted(endpoints)}
        adj = {v: [] for v in self._vertices}
        for eid, (u, v) in self._endpoints.items():
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        self._adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        self._darts = self._succ = self._peel = self._comps = None

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self):
        return self._vertices

    @property
    def edge_ids(self):
        return tuple(self._endpoints)

    @property
    def n(self):
        return len(self._vertices)

    @property
    def m(self):
        return len(self._endpoints)

    def has_vertex(self, v):
        return v in self._vset

    def has_edge(self, eid):
        return eid in self._endpoints

    def endpoints(self, eid):
        try:
            return self._endpoints[eid]
        except KeyError:
            raise UnknownEdge(eid) from None

    def incident(self, v):
        """Sorted tuple of ``(edge_id, other_endpoint)`` pairs at ``v``."""
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def darts(self):
        """The :class:`Darts` table, built on first use and then kept."""
        if self._darts is None:
            idx = {v: i for i, v in enumerate(self._vertices)}
            start, tail, head, steps = [0], [], [], []
            for i, v in enumerate(self._vertices):
                for step in self._adj[v]:
                    tail.append(i)
                    head.append(idx[step[1]])
                    steps.append(step)
                start.append(len(steps))
            pos = {(tail[d], steps[d][0]): d for d in range(len(steps))}
            twin = [pos[head[d], steps[d][0]] for d in range(len(steps))]
            # tuples: the arc kernel reads these in its inner loop, and a
            # tuple item is read without boxing an int
            self._darts = Darts(tuple(start), tuple(tail), tuple(head), tuple(twin),
                                tuple(steps))
        return self._darts

    def successors(self):
        """Per dart of :meth:`darts`, the tuple of darts that may follow it:
        those leaving its head, but its twin.  Built on first use and then
        kept; it holds one entry per 2-arc, so only the kernel's block path
        asks for it."""
        if self._succ is None:
            self._succ = _successor_table(self.darts())
        return self._succ

    def neighbors(self, v):
        return sorted({w for _, w in self.incident(v)})

    def edges(self):
        """Sorted tuple of ``(edge_id, u, v)`` triples."""
        return tuple((eid, u, v) for eid, (u, v) in self._endpoints.items())

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._vertices == other._vertices and self._endpoints == other._endpoints

    def __repr__(self):
        return f"Multigraph(n={self.n}, m={self.m})"

    # -- degrees and degeneracy --------------------------------------------

    def degree(self, v):
        return len(self.incident(v))

    def max_degree(self):
        return max((len(a) for a in self._adj.values()), default=0)

    def min_degree(self):
        return min((len(a) for a in self._adj.values()), default=0)

    def degeneracy(self, with_core=False):
        """Maximum over subgraphs of the minimum degree, by min-degree peeling.

        With ``with_core=True`` also returns the peeling-time subgraph whose
        minimum degree attains the maximum.  The peel runs on first use and
        its result is then kept.
        """
        if self._peel is None:
            deg = {v: self.degree(v) for v in self._vertices}
            alive = set(self._vertices)
            best = 0
            core = frozenset(alive)
            while alive:
                v = min(alive, key=lambda x: (deg[x], x))
                if deg[v] > best:
                    best = deg[v]
                    core = frozenset(alive)
                for eid, w in self._adj[v]:
                    if w in alive and w != v:
                        deg[w] -= 1
                alive.discard(v)
            self._peel = best, core
        best, core = self._peel
        if not with_core:
            return best
        return best, self.induced_subgraph(core)

    # -- connectivity -------------------------------------------------------

    def components(self):
        """Connected components as sorted lists of vertices, sorted by minimum.
        The search runs on first use and its result is then kept; each call
        returns fresh lists."""
        return [list(comp) for comp in self._components()]

    def _components(self):
        """The kept components, as tuples."""
        if self._comps is None:
            seen = set()
            comps = []
            for start in self._vertices:
                if start not in seen:
                    comp = self._bfs_dist(start)
                    seen.update(comp)
                    comps.append(tuple(sorted(comp)))
            self._comps = tuple(comps)
        return self._comps

    def is_connected(self):
        """True for the null graph by convention."""
        return len(self._components()) <= 1

    def _bfs_dist(self, start):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for _, w in self._adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def distance(self, u, v):
        if not self.has_vertex(u):
            raise UnknownVertex(u)
        if not self.has_vertex(v):
            raise UnknownVertex(v)
        return self._bfs_dist(u).get(v, INFINITE)

    def diameter(self):
        """Diameter of the underlying simple graph; 0 for at most one vertex."""
        if self.n <= 1:
            return 0
        worst = 0
        for v in self._vertices:
            dist = self._bfs_dist(v)
            if len(dist) < self.n:
                return INFINITE
            worst = max(worst, max(dist.values()))
        return worst

    def is_biconnected(self):
        """Connected, at least two vertices, and no cut vertex.

        A two-vertex graph with at least one edge counts as biconnected.
        """
        if self.n < 2 or not self.is_connected():
            return False
        if self.n == 2:
            return self.m >= 1
        return not self.articulation_points()

    def articulation_points(self):
        """Cut vertices via iterative DFS lowpoints (parallel edges = back edges)."""
        index = {}
        low = {}
        parent_edge = {}
        cuts = set()
        counter = 0
        for root in self._vertices:
            if root in index:
                continue
            root_children = 0
            stack = [(root, iter(self._adj[root]))]
            index[root] = low[root] = counter
            counter += 1
            while stack:
                v, it = stack[-1]
                advanced = False
                for eid, w in it:
                    if eid == parent_edge.get(v):
                        continue
                    if w not in index:
                        index[w] = low[w] = counter
                        counter += 1
                        parent_edge[w] = eid
                        if v == root:
                            root_children += 1
                        stack.append((w, iter(self._adj[w])))
                        advanced = True
                        break
                    low[v] = min(low[v], index[w])
                if advanced:
                    continue
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if p != root and low[v] >= index[p]:
                        cuts.add(p)
            if root_children >= 2:
                cuts.add(root)
        return sorted(cuts)

    def shortest_walk(self, sources, target, avoid=None):
        """Units ``(v0, e1, v1, ..., vk)`` of a shortest walk from the nearest
        source to ``target`` that never uses the edge ``avoid``; None if none.

        Breadth-first (``_bfs_path``) from the sorted sources over sorted
        incidences."""
        return _bfs_path(sorted(sources), target,
                        lambda v: (step for step in self._adj[v] if step[0] != avoid))

    def shortest_cycle(self):
        """Units of a shortest closed walk ``(u, ..., v, e, u)`` through an edge
        ``e = uv`` and a shortest u-v walk avoiding it, or None for forests.

        Ties go to the least edge id; a parallel pair is a 2-cycle.
        """
        best = None
        for eid, (u, v) in self._endpoints.items():
            walk = self.shortest_walk((u,), v, avoid=eid)
            if walk is not None and (best is None or len(walk) + 2 < len(best)):
                best = walk + (eid, u)
        return best

    def girth(self):
        """Length of a shortest cycle; a parallel pair is a 2-cycle; inf for forests."""
        cyc = self.shortest_cycle()
        return INFINITE if cyc is None else len(cyc) // 2

    # -- subgraphs -----------------------------------------------------------

    def induced_subgraph(self, vertices):
        """Maximal subgraph on the given vertex set."""
        vs = set()
        for v in vertices:
            if not self.has_vertex(v):
                raise UnknownVertex(v)
            vs.add(v)
        edges = [
            (eid, u, w)
            for eid, (u, w) in self._endpoints.items()
            if u in vs and w in vs
        ]
        return Multigraph(vs, edges)

    def edge_subgraph(self, edge_ids, vertices=()):
        """Minimal subgraph containing the given edges plus extra vertices."""
        vs = set()
        for v in vertices:
            if not self.has_vertex(v):
                raise UnknownVertex(v)
            vs.add(v)
        edges = []
        for eid in edge_ids:
            u, w = self.endpoints(eid)
            edges.append((eid, u, w))
            vs.add(u)
            vs.add(w)
        return Multigraph(vs, edges)

    def underlying_simple(self):
        """Collapse parallel edges, keeping the lexicographically least id."""
        keep = {}
        for eid, (u, v) in self._endpoints.items():
            pair = (u, v) if u <= v else (v, u)
            if pair not in keep or eid < keep[pair]:
                keep[pair] = eid
        edges = [(eid, u, v) for (u, v), eid in keep.items()]
        return Multigraph(self._vertices, edges)

    def multiplicity(self, u, v):
        return sum(1 for _, w in self.incident(u) if w == v)

    # -- text formats --------------------------------------------------------

    def serialize(self):
        """Edge-list text: sorted vertex declarations, then edges by edge id."""
        lines = [f"v {v}" for v in self._vertices]
        for eid, (u, v) in self._endpoints.items():
            if u == "v":
                u, v = v, u
            lines.append(f"{u} {v}")
        return "\n".join(lines) + "\n"

    def to_dot(self, name="G"):
        lines = [f"graph {name} {{"]
        for v in self._vertices:
            lines.append(f'  "{v}";')
        for eid, (u, v) in self._endpoints.items():
            lines.append(f'  "{u}" -- "{v}" [label="{eid}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def parse_edge_list(text):
    """Parse the edge-list format.

    Lines starting with ``#`` are ignored.  ``v NAME`` declares an isolated
    vertex, any other two-token line declares an edge; repeated lines yield
    parallel edges.  Edge ids are synthesized as ``e1``, ``e2``, ... in line
    order.  Bytes are read as UTF-8; a line that is not raises
    ``MalformedLine``.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedLine(text.count(b"\n", 0, exc.start) + 1, "not UTF-8") from None
    vertices = set()
    edges = []
    edge_no = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedLine(lineno, f"expected two tokens, got {len(tokens)}")
        if tokens[0] == "v":
            vertices.add(tokens[1])
            continue
        u, w = tokens
        if u == w:
            raise LoopRejected(lineno, f"loop at {u!r}")
        edge_no += 1
        edges.append((f"e{edge_no}", u, w))
    return Multigraph(vertices, edges)


# -- generators ---------------------------------------------------------------


def _edge_width(count):
    return max(1, len(str(count)))


def _eid(i, width):
    return f"e{i:0{width}d}"


def dipole(t):
    """Two vertices joined by ``t`` parallel edges."""
    if t < 1:
        raise InvalidParameter(f"dipole needs t >= 1, got {t}")
    w = _edge_width(t)
    return Multigraph(["u0", "u1"], [(_eid(i + 1, w), "u0", "u1") for i in range(t)])


def complete(n):
    if n < 1:
        raise InvalidParameter(f"complete needs n >= 1, got {n}")
    verts = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    w = _edge_width(len(pairs))
    return Multigraph(verts, [(_eid(k + 1, w), a, b) for k, (a, b) in enumerate(pairs)])


def complete_bipartite(n, m):
    if n < 1 or m < 1:
        raise InvalidParameter(f"complete_bipartite needs n, m >= 1, got {n}, {m}")
    left = [f"a{i}" for i in range(n)]
    right = [f"b{j}" for j in range(m)]
    pairs = [(a, b) for a in left for b in right]
    w = _edge_width(len(pairs))
    return Multigraph(
        left + right, [(_eid(k + 1, w), a, b) for k, (a, b) in enumerate(pairs)]
    )


def cycle(n):
    """Cycle with ``n`` edges; ``n = 2`` gives a pair of parallel edges."""
    if n < 2:
        raise InvalidParameter(f"cycle needs n >= 2, got {n}")
    verts = [f"v{i}" for i in range(n)]
    w = _edge_width(n)
    edges = [(_eid(i + 1, w), verts[i], verts[(i + 1) % n]) for i in range(n)]
    return Multigraph(verts, edges)


def path(n):
    """Path with ``n`` edges and ``n + 1`` vertices."""
    if n < 1:
        raise InvalidParameter(f"path needs n >= 1, got {n}")
    verts = [f"v{i}" for i in range(n + 1)]
    w = _edge_width(n)
    edges = [(_eid(i + 1, w), verts[i], verts[i + 1]) for i in range(n)]
    return Multigraph(verts, edges)


def petersen():
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    pairs = []
    for i in range(5):
        pairs.append((outer[i], outer[(i + 1) % 5]))
        pairs.append((inner[i], inner[(i + 2) % 5]))
        pairs.append((outer[i], inner[i]))
    pairs = sorted((a, b) if a <= b else (b, a) for a, b in pairs)
    w = _edge_width(len(pairs))
    return Multigraph(
        outer + inner, [(_eid(k + 1, w), a, b) for k, (a, b) in enumerate(pairs)]
    )


def wheel(n):
    """Hub joined to every vertex of a cycle with ``n`` rim vertices."""
    if n < 3:
        raise InvalidParameter(f"wheel needs n >= 3, got {n}")
    rim = [f"r{i}" for i in range(n)]
    pairs = [(rim[i], rim[(i + 1) % n]) for i in range(n)]
    pairs += [("h", r) for r in rim]
    pairs = sorted((a, b) if a <= b else (b, a) for a, b in pairs)
    w = _edge_width(len(pairs))
    return Multigraph(
        ["h"] + rim, [(_eid(k + 1, w), a, b) for k, (a, b) in enumerate(pairs)]
    )


def parallel_bridge():
    """Path u0-v0-v1-u1 whose middle edge is doubled (edges f0, e0, e1, f1)."""
    return Multigraph(
        ["u0", "v0", "v1", "u1"],
        [("f0", "u0", "v0"), ("e0", "v0", "v1"), ("e1", "v0", "v1"), ("f1", "v1", "u1")],
    )


def random_multigraph(seed, max_vertices=8, max_edges=14):
    """Seeded random loopless multigraph (parallel edges likely)."""
    import random as _random

    rng = _random.Random(seed)
    n = rng.randint(4, max_vertices)
    m = rng.randint(n, max_edges)
    verts = [f"v{i}" for i in range(n)]
    w = _edge_width(m)
    edges = []
    for k in range(m):
        u, v2 = rng.sample(verts, 2)
        edges.append((_eid(k + 1, w), u, v2))
    return Multigraph(verts, edges)
