"""Derived graphs: link graphs, path graphs, arc digraphs, and the natural
partition machinery with its quotient."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import (
    InvalidParameter,
    NotALink,
    PartitionMismatch,
    WindowTooShort,
)
from .links import (
    Arc,
    Link,
    arc_windows,
    enumerate_arcs,
    hub_subgraph,
    is_cycle,
    is_link_of,
    is_path,
    link_count,
    link_windows,
    shunt_reach,
)
from .multigraph import Multigraph

# links and arcs order as their unit tuples, which sort and hash without a
# Python-level comparison
_units = attrgetter("units")


@dataclass
class LabeledGraph:
    """Graph whose vertices are links and whose edges carry one-longer links.

    Edges are stored as ``(i, j, label)`` with ``i < j``; labels are pairwise
    distinct and their two windows are exactly the endpoints.
    """

    ell: int
    vertices: tuple
    edges: tuple
    source: Multigraph | None = None
    index: dict = field(default_factory=dict, repr=False, compare=False)
    _adj: list | None = field(default=None, init=False, repr=False, compare=False)
    _comps: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.index:
            self.index = {link: i for i, link in enumerate(self.vertices)}

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    def degrees(self):
        deg = [0] * self.n
        for a, b, _ in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def adjacency(self):
        """Simple adjacency as a list of sets of neighbour indices.

        Built on the first call and shared by every later one, so callers
        must not mutate it.
        """
        if self._adj is None:
            adj = [set() for _ in range(self.n)]
            for a, b, _ in self.edges:
                adj[a].add(b)
                adj[b].add(a)
            self._adj = adj
        return self._adj

    def multiplicity(self, i, j):
        pair = (i, j) if i < j else (j, i)
        return sum(1 for a, b, _ in self.edges if (a, b) == pair)

    def edge_groups(self):
        """Map endpoint pair -> list of labels."""
        groups = {}
        for a, b, lab in self.edges:
            groups.setdefault((a, b), []).append(lab)
        return groups

    def is_connected(self):
        return len(self.components()) <= 1

    def components(self):
        """Sorted index lists of the connected components, by least index.

        Built on the first call and shared by every later one, so callers
        must not mutate it.
        """
        if self._comps is None:
            adj = self.adjacency()
            seen = set()
            comps = []
            for s in range(self.n):
                if s not in seen:
                    comp = reachable(adj, s)
                    seen |= comp
                    comps.append(sorted(comp))
            self._comps = comps
        return self._comps

    def simplify(self):
        """Underlying simple graph, keeping the least label per endpoint pair."""
        keep = {}
        for a, b, lab in self.edges:
            if (a, b) not in keep or lab < keep[(a, b)]:
                keep[(a, b)] = lab
        edges = tuple(sorted((a, b, lab) for (a, b), lab in keep.items()))
        return LabeledGraph(self.ell, self.vertices, edges, self.source)

    def _unit_signature(self):
        """``edge_signature`` as sorted triples of unit tuples."""
        units = [v.units for v in self.vertices]
        out = []
        for a, b, lab in self.edges:
            ua, ub = units[a], units[b]
            out.append((ua, ub, lab.units) if ua <= ub else (ub, ua, lab.units))
        out.sort()
        return out

    def edge_signature(self):
        """Label-based edge set, independent of vertex indexing."""
        return [(Link(a), Link(b), Link(q)) for a, b, q in self._unit_signature()]

    def same_labeled_graph(self, other):
        return (
            sorted(map(_units, self.vertices)) == sorted(map(_units, other.vertices))
            and self._unit_signature() == other._unit_signature()
        )

    def to_multigraph(self):
        verts = [str(v) for v in self.vertices]
        edges = [(str(lab), str(self.vertices[a]), str(self.vertices[b]))
                 for a, b, lab in self.edges]
        return Multigraph(verts, edges)

    def to_json(self):
        return json.dumps(
            {
                "ell": self.ell,
                "vertices": [str(v) for v in self.vertices],
                "edges": [[a, b, str(lab)] for a, b, lab in self.edges],
            },
            indent=2,
            sort_keys=True,
        )

    def to_dot(self, partition=None, name="H"):
        lines = [f"graph {name} {{"]
        if partition is not None:
            for k, (key, members) in enumerate(sorted(partition.vertex_parts.items())):
                lines.append(f"  subgraph cluster_{k} {{")
                lines.append(f'    label="{key}";')
                for i in sorted(members):
                    lines.append(f'    n{i} [label="{self.vertices[i]}"];')
                lines.append("  }")
        else:
            for i, v in enumerate(self.vertices):
                lines.append(f'  n{i} [label="{v}"];')
        for a, b, lab in self.edges:
            lines.append(f'  n{a} -- n{b} [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def index_adjacency(host):
    """Simple adjacency of a host as a list of neighbour-index sets.

    Vertices are indexed in the host's order; parallel edges collapse.  A
    list of neighbour sets passes through unchanged.
    """
    if isinstance(host, LabeledGraph):
        return host.adjacency()
    if isinstance(host, Multigraph):
        idx = {v: i for i, v in enumerate(host.vertices)}
        adj = [set() for _ in range(host.n)]
        for _, u, v in host.edges():
            adj[idx[u]].add(idx[v])
            adj[idx[v]].add(idx[u])
        return adj
    return host


def reachable(adj, start, allowed=None):
    """Set of indices reachable from ``start`` over an index adjacency,
    stepping only onto ``allowed`` indices when given."""
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen and (allowed is None or y in allowed):
                seen.add(y)
                stack.append(y)
    return seen


@dataclass
class LabeledDigraph:
    """Digraph on arcs; each arc of the digraph carries a one-longer arc."""

    ell: int
    vertices: tuple
    arcs: tuple  # (tail index, head index, label Arc)
    source: Multigraph | None = None
    index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.index:
            self.index = {a: i for i, a in enumerate(self.vertices)}

    @property
    def n(self):
        return len(self.vertices)

    def underlying_pairs(self):
        """Deduplicated undirected index pairs (for colouring comparisons)."""
        pairs = set()
        for t, h, _ in self.arcs:
            if t != h:
                pairs.add((t, h) if t < h else (h, t))
        return pairs

    def to_json(self):
        return json.dumps(
            {
                "ell": self.ell,
                "vertices": [str(v) for v in self.vertices],
                "arcs": [[t, h, str(lab)] for t, h, lab in self.arcs],
            },
            indent=2,
            sort_keys=True,
        )

    def to_dot(self, name="A"):
        lines = [f"digraph {name} {{"]
        for i, v in enumerate(self.vertices):
            lines.append(f'  n{i} [label="{v}"];')
        for t, h, lab in self.arcs:
            lines.append(f'  n{t} -> n{h} [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class AlmostStandardPartition:
    """Vertex parts keyed by middle segments two shorter, edge parts one shorter."""

    ell: int
    vertex_parts: dict  # Link -> frozenset of vertex indices
    edge_parts: dict  # Link -> frozenset of edge indices


@dataclass
class PartitionCheck:
    independent_parts: bool  # (a)
    two_part_incidence: bool  # (b)
    complete_bipartite: bool  # (c)
    vertex_two_edge_parts: bool  # (d)
    unique_shared_vertex: bool  # (e)
    failures: list

    def all_ok(self):
        return (
            self.independent_parts
            and self.two_part_incidence
            and self.complete_bipartite
            and self.vertex_two_edge_parts
            and self.unique_shared_vertex
        )


def link_graph(G, ell, limit=None):
    """The graph on ``ell``-links whose edges are the one-longer links."""
    return _windows_graph(G, ell, link_windows(G, ell, limit))


def _windows_graph(G, ell, windows):
    """The ``ell``-link graph of ``G`` built from its ``link_windows``."""
    verts, labels, (tails, heads) = windows
    edges = sorted((i, j, q) if i < j else (j, i, q) for i, j, q in zip(tails, heads, labels))
    return LabeledGraph(ell, tuple(verts), tuple(edges), G)


def partial_link_graph(G, links, quals, limit=None):
    """Link graph restricted to given links and connecting labels."""
    links = sorted(set(links))
    ell = None
    for link in links:
        if ell is None:
            ell = link.length
        if link.length != ell or not is_link_of(G, link):
            raise NotALink(f"{link} is not an {ell}-link of the graph")
    verts = tuple(links)
    idx = {v: i for i, v in enumerate(verts)}
    vset = set(verts)
    edge_list = []
    for q in sorted(set(quals)):
        if ell is not None and q.length != ell + 1:
            raise NotALink(f"{q} does not have length {ell + 1}")
        if not is_link_of(G, q):
            raise NotALink(f"{q} is not a link of the graph")
        w0 = Link.from_units(q.units[: len(q.units) - 2])
        w1 = Link.from_units(q.units[2:])
        if w0 in vset and w1 in vset:
            i, j = idx[w0], idx[w1]
            if i > j:
                i, j = j, i
            edge_list.append((i, j, q))
    edge_list.sort()
    return LabeledGraph(ell if ell is not None else 0, verts, tuple(edge_list), G, idx)


def path_graph(G, ell, limit=None):
    """Simple graph on ``ell``-paths joined through one-longer paths or cycles."""
    if ell < 0:
        raise InvalidParameter(f"ell must be >= 0, got {ell}")
    return _path_graph_of(link_graph(G, ell, limit))


def _path_graph_of(H):
    """The path graph inside the link graph ``H``: the vertices that are paths,
    and the edges between them whose label is a path or a cycle, simplified.
    At ``ell >= 2`` a path graph without vertices has ``ell`` 0, as
    ``partial_link_graph`` gives an empty link set."""
    if H.ell <= 1:
        return H.simplify()
    new = [None] * H.n
    verts = []
    for i, v in enumerate(H.vertices):
        if is_path(v):
            new[i] = len(verts)
            verts.append(v)
    edges = []
    for i, j, lab in H.edges:
        a, b = new[i], new[j]
        if a is not None and b is not None and (is_path(lab) or is_cycle(lab)):
            edges.append((a, b, lab))
    edges.sort()
    return LabeledGraph(H.ell if verts else 0, tuple(verts), tuple(edges), H.source).simplify()


def arc_digraph(G, ell, limit=None):
    """Digraph on ``ell``-arcs; one labelled arc per one-longer arc.

    The one-longer arcs come in lexicographic order, which is already the
    order of their (tail window, head window) pairs.
    """
    if ell < 1:
        raise InvalidParameter(f"arc digraph needs ell >= 1, got {ell}")
    verts, labels, windows = arc_windows(G, ell, limit)
    arcs = tuple((t, h, q) for (t, h), q in zip(windows, labels))
    return LabeledDigraph(ell, tuple(verts), arcs, G)


@dataclass
class ChainDigraph:
    """Iterated line digraph; a vertex is a chain of successively incident 1-arcs."""

    depth: int
    vertices: tuple  # tuples of length-1 Arcs
    arcs: tuple  # (tail index, head index)


def iterated_line_digraph(G, ell, limit=None):
    """Apply the line-digraph step ``ell`` times starting from the 1-arc digraph."""
    if ell < 1:
        raise InvalidParameter(f"iterated line digraph needs ell >= 1, got {ell}")
    one_arcs = enumerate_arcs(G, 1, limit)
    verts = tuple((a,) for a in one_arcs)
    pairs = []
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            a, b = u[0], v[0]
            if a.head_vertex == b.tail_vertex and a.head_edge != b.tail_edge:
                pairs.append((i, j))
    depth = 1
    while depth < ell:
        # line digraph: vertices become the arcs, arcs become composable pairs
        new_verts = tuple(verts[i] + (verts[j][-1],) for i, j in pairs)
        by_tail = {}
        for k, (i, j) in enumerate(pairs):
            by_tail.setdefault(i, []).append(k)
        new_pairs = []
        for k, (i, j) in enumerate(pairs):
            for k2 in by_tail.get(j, ()):
                new_pairs.append((k, k2))
        verts, pairs = new_verts, sorted(new_pairs)
        depth += 1
    return ChainDigraph(ell, verts, tuple(pairs))


def _flatten_chain(chain):
    units = chain[0].units
    for nxt in chain[1:]:
        if nxt.tail_vertex != units[-1]:
            return None
        units = units + nxt.units[1:]
    return Arc(units)


def digraph_natural_iso_check(G, ell, limit=None):
    """Verify the chain digraph is isomorphic to the arc digraph.

    The natural bijection flattens a chain of 1-arcs into a longer arc; the
    check confirms the flattening is a bijection onto the arc-digraph vertices
    and that labelled arcs correspond one to one.
    """
    A = arc_digraph(G, ell, limit)
    C = iterated_line_digraph(G, ell, limit)
    if len(C.vertices) != A.n:
        return False
    flat = []
    for chain in C.vertices:
        arc = _flatten_chain(chain)
        if arc is None or arc.length != ell:
            return False
        flat.append(arc)
    if sorted(flat) != sorted(A.vertices):
        return False
    if len(set(flat)) != len(flat):
        return False
    a_arcs = {(A.vertices[t], A.vertices[h]): lab for t, h, lab in A.arcs}
    if len(a_arcs) != len(A.arcs):  # at most one arc per ordered pair
        return False
    if len(C.arcs) != len(A.arcs):
        return False
    seen = set()
    for t, h in C.arcs:
        key = (flat[t], flat[h])
        if key not in a_arcs or key in seen:
            return False
        seen.add(key)
        # the label is the flattening of the chain pair
        merged = Arc(flat[t].units + flat[h].units[-2:])
        if merged != a_arcs[key]:
            return False
    return True


def natural_partition(H):
    """Group vertices by their middle segment two shorter, edges one shorter."""
    if H.ell < 2:
        raise WindowTooShort(f"natural partition needs ell >= 2, got {H.ell}")
    return AlmostStandardPartition(
        H.ell,
        _parts_by_middle(map(_units, H.vertices)),
        _parts_by_middle(lab.units for _, _, lab in H.edges),
    )


def _parts_by_middle(units):
    """Positions of the unit tuples grouped by their middle segment one dart
    shorter at each end, keyed by that segment as a link."""
    parts = {}
    for k, u in enumerate(units):
        mid = u[2:-2]
        parts.setdefault(min(mid, mid[::-1]), []).append(k)
    return {Link(key): frozenset(members) for key, members in parts.items()}


def verify_almost_standard(H, partition):
    """Check conditions (a)-(e) independently; raises only on non-partitions.

    Part keys are numbered in sorted key order, and the checks work on those
    numbers."""
    failures = []
    vkeys = sorted(partition.vertex_parts, key=_units)
    ekeys = sorted(partition.edge_parts, key=_units)
    vrank = {key: x for x, key in enumerate(vkeys)}
    erank = {key: x for x, key in enumerate(ekeys)}
    vparts = [(vrank[key], members) for key, members in partition.vertex_parts.items()]
    eparts = [(erank[key], members) for key, members in partition.edge_parts.items()]

    covered = [None] * H.n
    for key, members in vparts:
        for i in members:
            if i is None or not (0 <= i < H.n) or covered[i] is not None:
                raise PartitionMismatch(f"vertex {i} not properly partitioned")
            covered[i] = key
    if any(c is None for c in covered):
        raise PartitionMismatch("vertex parts do not cover the graph")
    ecovered = [None] * H.m
    for key, members in eparts:
        for k in members:
            if not (0 <= k < H.m) or ecovered[k] is not None:
                raise PartitionMismatch(f"edge {k} not properly partitioned")
            ecovered[k] = key
    if any(c is None for c in ecovered):
        raise PartitionMismatch("edge parts do not cover the graph")

    # (a) every vertex part is an independent set
    a_ok = True
    for i, j, _ in H.edges:
        if covered[i] == covered[j]:
            a_ok = False
            failures.append(("a", f"edge inside part {vkeys[covered[i]]}"))
            break

    # (b) every edge part touches exactly two vertex parts
    b_ok = True
    for key, members in eparts:
        parts = set()
        for k in members:
            i, j, _ = H.edges[k]
            parts.add(covered[i])
            parts.add(covered[j])
        if len(parts) != 2:
            b_ok = False
            failures.append(("b", f"edge part {ekeys[key]} touches {len(parts)} parts"))

    # (c) every edge part is the edge set of a complete bipartite subgraph
    c_ok = True
    for key, members in eparts:
        if not _is_complete_bipartite([H.edges[k][:2] for k in members]):
            c_ok = False
            failures.append(("c", f"edge part {ekeys[key]} is not complete bipartite"))

    # (d) every vertex meets at most two edge parts
    d_ok = True
    vertex_eparts = {}
    for key, members in eparts:
        for k in members:
            i, j, _ = H.edges[k]
            vertex_eparts.setdefault(i, set()).add(key)
            vertex_eparts.setdefault(j, set()).add(key)
    for v, keys in vertex_eparts.items():
        if len(keys) > 2:
            d_ok = False
            failures.append(("d", f"vertex {H.vertices[v]} meets {len(keys)} edge parts"))
            break

    # (e) a vertex part holds at most one vertex meeting any two edge parts
    e_ok = True
    seen = {}
    for v, keys in vertex_eparts.items():
        ks = sorted(keys)
        for x in range(len(ks)):
            for y in range(x + 1, len(ks)):
                tag = (covered[v], ks[x], ks[y])
                if tag in seen:
                    e_ok = False
                    failures.append(("e", f"two vertices of {vkeys[tag[0]]} meet both parts"))
                else:
                    seen[tag] = v
    return PartitionCheck(a_ok, b_ok, c_ok, d_ok, e_ok, failures)


def _is_complete_bipartite(pairs):
    """True when the index pairs are the edges of a complete bipartite graph,
    each once: every edge has one end among the neighbours of one vertex,
    and the edges number the sides' product."""
    edges = set(pairs)
    if len(edges) != len(pairs):
        return False
    if not edges:
        return True
    x = pairs[0][0]
    side = {j if i == x else i for i, j in edges if x in (i, j)}
    ends = {v for pair in edges for v in pair}
    return (len(edges) == len(side) * (len(ends) - len(side))
            and all((i in side) != (j in side) for i, j in edges))


def quotient(H, partition):
    """Quotient multigraph: one vertex per vertex part, one edge per edge part."""
    covered = {}
    for key, members in partition.vertex_parts.items():
        for i in members:
            covered[i] = key
    if len(covered) != H.n:
        raise PartitionMismatch("vertex parts do not cover the graph")
    edges = []
    for key, members in sorted(partition.edge_parts.items()):
        parts = set()
        for k in members:
            i, j, _ = H.edges[k]
            parts.add(covered[i])
            parts.add(covered[j])
        if len(parts) != 2:
            raise PartitionMismatch(f"edge part {key} does not touch exactly two parts")
        u, v = sorted(str(p) for p in parts)
        edges.append((str(key), u, v))
    verts = [str(k) for k in partition.vertex_parts]
    return Multigraph(verts, edges)


def quotient_embedding_check(G, ell, H=None, lower=None, limit=None):
    """Verify the quotient maps onto an induced subgraph of the graph two back.

    Uses the explicit key maps: a vertex part keyed by ``R`` goes to the
    vertex ``R``, an edge part keyed by ``P`` goes to the edge labelled ``P``.
    """
    if ell < 2:
        raise WindowTooShort(f"embedding check needs ell >= 2, got {ell}")
    if H is None:
        H = link_graph(G, ell, limit)
    if lower is None:
        lower = link_graph(G, ell - 2, limit)
    return _quotient_embeds(H, natural_partition(H), lower)


def _quotient_embeds(H, part, lower):
    """``quotient_embedding_check`` on the natural partition ``part`` of ``H``.

    A vertex part is numbered by the index of its key in ``lower`` and an
    edge part is looked up by the unit tuple of its key, so the checks hash
    integers and tuples, not links."""
    # keys must be vertices / edge labels of the lower graph
    covered = [None] * H.n
    image = set()
    for key, members in part.vertex_parts.items():
        x = lower.index.get(key)
        if x is None:
            return False
        image.add(x)
        for i in members:
            covered[i] = x
    lower_labels = {lab.units: (i, j) for i, j, lab in lower.edges}
    mu = {}
    for key, members in part.edge_parts.items():
        ends = lower_labels.get(key.units)
        if ends is None:
            return False
        # incident vertex parts must map to the windows of the key
        parts = set()
        for k in members:
            i, j, _ = H.edges[k]
            parts.add(covered[i])
            parts.add(covered[j])
        if parts != set(ends):
            return False
        i, j, _ = H.edges[next(iter(members))]
        pair = tuple(sorted((covered[i], covered[j])))
        mu[pair] = mu.get(pair, 0) + 1
    # induced-subgraph correspondence, edge part counts against all lower edges
    lower_counts = {}
    for i, j, _ in lower.edges:
        if i in image and j in image:
            pair = (i, j) if i < j else (j, i)
            lower_counts[pair] = lower_counts.get(pair, 0) + 1
    return mu == lower_counts


def link_graph_connected(G, ell, limit=None):
    """Connectivity of the link graph via the hub criterion.

    The criterion: the hub subgraph is connected and every link can be shunted
    to a link lying inside the hub.  A hub holding every edge of ``G`` (at
    ``ell = 0``, every vertex) holds every link, so only a connected hub that
    misses some needs the shunt search.  When the hub hosts no link at all the
    criterion is silent and we fall back to direct breadth-first search.
    """
    n_links = link_count(G, ell, limit)
    if n_links <= 1:
        return True
    hub = hub_subgraph(G, ell, limit)
    if not hub.is_connected():
        return False
    if (hub.m == G.m) if ell else (hub.n == G.n):
        return True
    reached = shunt_reach(G, ell, hub)
    if not reached:
        # degenerate: hub too small to host a link of this length
        return link_graph(G, ell, limit).is_connected()
    return reached == n_links
