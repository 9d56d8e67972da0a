"""Derived graphs: link graphs, path graphs, arc digraphs, and the natural
partition machinery with its quotient."""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, compress, islice, repeat
from operator import and_, attrgetter, eq, floordiv, itemgetter, mod, or_

from .errors import (
    InvalidParameter,
    NotALink,
    PartitionMismatch,
    WindowTooShort,
)
from .links import (
    Link,
    _arc_cap,
    _arc_levels,
    _arc_units,
    _arcs,
    _canonical,
    _check_limit,
    _counted,
    _hub_graph,
    _inside,
    _keep_for_links,
    _kernel,
    _link_cap,
    _link_ids,
    _middle_ids,
    _middle_units,
    _paths,
    _unit_tuples,
    _walks,
    _window_ids,
    arc_windows,
    enumerate_arcs,
    is_cycle,
    is_link_of,
    is_path,
)
from .multigraph import Multigraph

# links and arcs order as their unit tuples, which sort and hash without a
# Python-level comparison
_units = attrgetter("units")
_first, _second = itemgetter(0), itemgetter(1)


class LabeledGraph:
    """Graph whose vertices are links and whose edges carry one-longer links.

    Edges are stored as ``(i, j, label)`` with ``i < j``; labels are pairwise
    distinct and their two windows are exactly the endpoints.

    The integer core is ``n`` and the edge ends, two ``array('i')`` tables.
    ``ends`` holds them in the order of ``edges``, with ``i < j``.  A graph
    built from kernel levels (``_windows_graph``) holds kernel ids: its core
    is the windows of its labels in canonical label order, either end first,
    and ``ends`` is sorted from them (``_sorted_ends``) on the first read of
    ``ends`` or of the ``Link``s, which then drops the windows.  ``m``,
    the degrees, the adjacency and the components read the edges in either
    order (``_pairs``), so counting, colouring and connectivity sort nothing.
    The first read of ``edges`` or ``vertices`` makes the ``Link``s in one
    ``_unit_tuples`` pass and drops the levels.  A graph built from explicit
    vertices and edges fills ``ends`` from its edges on the first read.
    ``index`` is made on its first read.  ``_lookup`` finds a vertex by the
    canonical unit tuple of its link, in a dict made once: from the kernel
    levels while the graph holds them, so no ``Link`` is made, and from the
    vertices otherwise.
    """

    def __init__(self, ell, vertices, edges, source=None, index=None):
        self.ell, self.source, self.n = ell, source, len(vertices)
        self._vertices, self._edges, self._index = vertices, edges, index or None
        self._ends = self._windows = self._order = self._pending = None
        self._adj = self._comps = self._ids = None

    def _make_links(self):
        """The ``Link``s of a graph built from kernel levels, in one pass:
        ``_pending`` holds the levels, and ``_order``, made with ``ends``,
        per edge the canonical index of its label."""
        levels, ell = self._pending, self.ell
        units = _unit_tuples(self.source, levels,
                             {L: _canonical(levels[L]) for L in (ell, ell + 1)})
        self._vertices = tuple(map(Link, units[ell]))
        labels = list(map(Link, units[ell + 1]))
        self._edges = tuple(zip(*self.ends, map(labels.__getitem__, self._order)))
        self._pending = self._order = None

    @property
    def vertices(self):
        if self._pending:
            self._make_links()
        return self._vertices

    @property
    def edges(self):
        if self._pending:
            self._make_links()
        return self._edges

    @property
    def index(self):
        if self._index is None:
            self._index = {link: i for i, link in enumerate(self.vertices)}
        return self._index

    def _lookup(self, units):
        """The vertex index of the link with canonical unit tuple ``units``;
        ``KeyError`` when it is not a vertex.  Reads a ``{units: index}``
        dict made on the first lookup: while the graph holds its kernel
        levels, from one ``_unit_tuples`` pass over its canonical links, so
        no ``Link`` of the graph is made; otherwise from its vertices."""
        if self._ids is None:
            if self._pending:
                levels, ell = self._pending, self.ell
                found = _unit_tuples(self.source, levels, {ell: _canonical(levels[ell])})[ell]
            else:
                found = map(_units, self.vertices)
            self._ids = dict(zip(found, range(self.n)))
        return self._ids[units]

    @property
    def ends(self):
        if self._ends is None:
            if self._windows is None:
                self._ends = (array("i", map(_first, self._edges)),
                              array("i", map(_second, self._edges)))
            else:
                self._ends, self._order = _sorted_ends(self._windows, self.n)
                self._windows = None
        return self._ends

    def _pairs(self):
        """The edge ends as two tables, in whichever order the graph holds:
        the label-order windows, either end first, until ``ends`` is read,
        then ``ends``.  For readers that take the edges in any order."""
        return self.ends if self._windows is None else self._windows

    def __eq__(self, other):
        # ``index`` and the integer core follow from the vertices and edges
        if type(other) is not type(self):
            return NotImplemented
        return ((self.ell, self.vertices, self.edges, self.source)
                == (other.ell, other.vertices, other.edges, other.source))

    __hash__ = None

    @property
    def m(self):
        return len(self._pairs()[0])

    def degrees(self):
        deg = [0] * self.n
        for table in self._pairs():
            for a in table:
                deg[a] += 1
        return deg

    def adjacency(self):
        """Simple adjacency as a list of sets of neighbour indices.

        Built on the first call and shared by every later one, so callers
        must not mutate it.
        """
        if self._adj is None:
            self._adj = _pair_adjacency(self.n, zip(*self._pairs()))
        return self._adj

    def multiplicity(self, i, j):
        pair = (i, j) if i < j else (j, i)
        return sum(1 for ab in zip(*self.ends) if ab == pair)

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
            self._comps = _components(self.adjacency())
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
        """The edges as sorted ``(end, end, label)`` unit-tuple triples, free of indexing."""
        units = [v.units for v in self.vertices]
        out = []
        for a, b, lab in self.edges:
            ua, ub = units[a], units[b]
            out.append((ua, ub, lab.units) if ua <= ub else (ub, ua, lab.units))
        out.sort()
        return out

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
        return _pair_adjacency(host.n, ((idx[u], idx[v]) for _, u, v in host.edges()))
    return host


def _pair_adjacency(n, pairs):
    """The neighbour-index sets on ``0..n-1`` of the index pairs ``pairs``:
    repeated pairs collapse and a loop is dropped."""
    adj = [set() for _ in range(n)]
    for a, b in pairs:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def reachable(adj, starts, allowed=None):
    """Set of indices reachable from the indices ``starts`` over an index
    adjacency, stepping only onto ``allowed`` indices when given."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen and (allowed is None or y in allowed):
                seen.add(y)
                stack.append(y)
    return seen


def _components(adj):
    """Sorted index lists of the connected components of an index adjacency,
    by least index."""
    seen, comps = set(), []
    for s in range(len(adj)):
        if s not in seen:
            comp = reachable(adj, (s,))
            seen |= comp
            comps.append(sorted(comp))
    return comps


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
    if ell < 0:
        raise InvalidParameter(f"ell must be >= 0, got {ell}")
    totals, fwd = _counted(G, {ell: _link_cap(ell, limit), ell + 1: _link_cap(ell + 1, limit)})
    if not _arcs(totals, ell):
        # past the last length with an arc: no link, and no level is built
        return LabeledGraph(ell, (), (), G)
    levels = _arc_levels(G, fwd, ell, ell + 1)
    H = _windows_graph(G, ell, levels)
    _keep_for_links(levels)
    return H


def _windows_graph(G, ell, levels):
    """The ``ell``-link graph of ``G`` on the kernel ids of ``levels``, which
    hold every ``ell``- and ``(ell + 1)``-arc: each ``(ell + 1)``-link joins
    the links of its kernel parent and suffix.  The graph holds these
    windows in canonical label order (``_window_ids``), unsorted."""
    H = LabeledGraph(ell, (), (), G)
    H.n = _canonical(levels[ell]).count(1)
    H._pending, H._windows = levels, _window_ids(levels, ell)
    return H


def _sorted_ends(windows, n):
    """The edge ends ``i < j`` of an ``n``-vertex graph whose labels have the
    windows ``windows`` in canonical order, sorted by their ends with a
    stable sort over the labels, and per sorted edge its label index.
    Canonical label ids run in unit order, so this is the order of the
    sorted ``(i, j, label)`` triples."""
    tails, heads = windows
    # an edge with ends i < j has the key i * n + j
    key = [a * n + b if a < b else b * n + a for a, b in zip(tails, heads)]
    order = array("i", sorted(range(len(key)), key=key.__getitem__))
    key = list(map(key.__getitem__, order))
    ends = array("i", map(floordiv, key, repeat(n))), array("i", map(mod, key, repeat(n)))
    return ends, order


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


def _path_parts(G, levels, ell):
    """The path graph inside the ``ell``-link graph on kernel ids, read off
    levels that hold every ``ell``- and ``(ell + 1)``-arc, as two masks: the
    ``ell``-arcs that are paths, and the ``(ell + 1)``-arcs that are paths or
    cycles.  Both hold for an arc exactly when they hold for its reverse, so
    a link is a vertex or an edge label of the path graph when its arcs are
    set in the masks.

    An arc is a path when its parent and its suffix are paths and its first
    vertex is not its last (``_paths``); an arc of length 2 or more is a
    cycle when it is closed and its parent is a path."""
    top, head = levels[ell + 1], G.darts().head
    below, label = _paths(G, levels, ell), _paths(G, levels, ell + 1)
    if ell and 0 in label:
        firsts = map(head.__getitem__, map(top.last.__getitem__, top.rev))
        closed = map(eq, firsts, map(head.__getitem__, top.last))
        label = bytes(map(or_, label, map(and_, closed, map(below.__getitem__, top.parent))))
    return below, label


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
    return next(islice(_line_digraphs(G, limit), ell - 1, None))


def _line_digraphs(G, limit=None):
    """The chain digraphs of depth 1, 2, ... in turn, each a line-digraph
    step from the one before; ``limit`` caps the 1-arcs, and is checked on
    the first ``next``.

    At depth 1 arc ``i`` joins every arc ``j`` that leaves its head by
    another edge.  The 1-arcs grouped by tail vertex give those ``j`` in
    increasing order, so the pairs come in ``(i, j)`` order without a scan
    of all pairs."""
    one_arcs = enumerate_arcs(G, 1, limit)
    verts = tuple((a,) for a in one_arcs)
    leaving = defaultdict(list)
    for j, a in enumerate(one_arcs):
        leaving[a.tail_vertex].append(j)
    pairs = [(i, j) for i, a in enumerate(one_arcs) for j in leaving[a.head_vertex]
             if one_arcs[j].tail_edge != a.head_edge]
    depth = 1
    while True:
        yield ChainDigraph(depth, verts, tuple(pairs))
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


def _flatten_chain(chain):
    """The unit tuple of the walk a chain of 1-arcs spells, or ``None`` when
    one 1-arc does not start where the one before it ends."""
    units = chain[0].units
    for nxt in chain[1:]:
        if nxt.tail_vertex != units[-1]:
            return None
        units = units + nxt.units[1:]
    return units


def digraph_natural_iso_check(G, ell, limit=None):
    """Verify the chain digraph is isomorphic to the arc digraph.

    The natural bijection flattens a chain of 1-arcs into a longer arc; the
    check confirms the flattening is a bijection onto the arc-digraph vertices
    and that labelled arcs correspond one to one.
    """
    if ell < 1:
        raise InvalidParameter(f"arc digraph needs ell >= 1, got {ell}")
    cap = _arc_cap(limit)
    levels = _kernel(G, ell, {ell: cap, ell + 1: cap})
    return _chains_match(G, levels, ell, iterated_line_digraph(G, ell, limit))


def _chains_match(G, levels, ell, C):
    """``digraph_natural_iso_check`` of the chain digraph ``C`` against the
    arc digraph read off kernel levels that hold every ``ell``- and
    ``(ell + 1)``-arc: an ``ell``-arc is a vertex, and each
    ``(ell + 1)``-arc joins its parent to its suffix and is the label.

    Flattened chains are matched to arc ids through their unit tuples, chain
    arcs to (parent, suffix) id pairs, and labels are compared as tuples.
    """
    units = _arc_units(G, levels, ell)
    verts, labels = units[ell], units[ell + 1]
    if len(C.vertices) != len(verts):
        return False
    id_of = dict(zip(verts, range(len(verts))))
    flat = list(map(_flatten_chain, C.vertices))
    # a chain that is no ell-arc has no id; distinct ids make the flattening a bijection
    ids = list(map(id_of.get, flat))
    if None in ids or len(set(ids)) != len(ids):
        return False
    top = levels[ell + 1]
    arc_of = dict(zip(zip(top.parent, top.suffix), range(len(labels))))
    # at most one arc per ordered pair, and as many arcs as the chain digraph
    if len(arc_of) != len(labels) or len(C.arcs) != len(labels):
        return False
    seen = set()
    for t, h in C.arcs:
        k = arc_of.get((ids[t], ids[h]))
        if k is None or k in seen:
            return False
        seen.add(k)
        # the label is the flattening of the chain pair
        if flat[t] + flat[h][-2:] != labels[k]:
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

    The parts are numbered in the partition's order by ``_numbered`` and
    checked by ``_almost_standard``; the failure texts name them by their keys."""
    vpart, eparts = _numbered(H, partition)
    vkeys, ekeys = list(partition.vertex_parts), list(partition.edge_parts)
    return _almost_standard(H.ends, vpart, eparts,
                            vkeys.__getitem__, ekeys.__getitem__, H.vertices.__getitem__)


def _numbered(H, partition):
    """The parts of ``partition`` numbered in its order: ``vpart[i]`` is the
    number of the vertex part of vertex ``i``, and ``eparts`` lists the edge
    indices of each edge part.  Raises ``PartitionMismatch`` unless the parts
    cover the vertices and the edges of ``H`` once each."""
    vpart = [None] * H.n
    for x, members in enumerate(partition.vertex_parts.values()):
        for i in members:
            if i is None or not (0 <= i < H.n) or vpart[i] is not None:
                raise PartitionMismatch(f"vertex {i} not properly partitioned")
            vpart[i] = x
    if None in vpart:
        raise PartitionMismatch("vertex parts do not cover the graph")
    eparts = [list(members) for members in partition.edge_parts.values()]
    covered = [False] * H.m
    for members in eparts:
        for k in members:
            if not (0 <= k < H.m) or covered[k]:
                raise PartitionMismatch(f"edge {k} not properly partitioned")
            covered[k] = True
    if not all(covered):
        raise PartitionMismatch("edge parts do not cover the graph")
    return vpart, eparts


def _almost_standard(ends, vpart, eparts, vkey, ekey, vertex):
    """Conditions (a)-(e) of an almost-standard partition, on integers.

    ``ends`` is two tables: ``ends[0][k] < ends[1][k]`` are the ends of edge
    ``k``.  ``vpart[i]`` is the number of the vertex part of vertex ``i``,
    and ``eparts`` lists the edge indices of each edge part, numbered and
    checked in list order.  ``vkey``, ``ekey`` and ``vertex`` give what the
    failure texts name for a vertex part, an edge part and a vertex; they
    are called only on a failure."""
    lo, hi = ends
    a, b, c, d, e = [], [], [], [], []

    # (a) every vertex part is an independent set
    for i, j in zip(lo, hi):
        if vpart[i] == vpart[j]:
            a.append(("a", f"edge inside part {vkey(vpart[i])}"))
            break

    # (b) every edge part touches exactly two vertex parts, and (c) is the
    # edge set of a complete bipartite subgraph; list the parts each vertex meets
    meets = {}
    for y, members in enumerate(eparts):
        pairs = [(lo[k], hi[k]) for k in members]
        met = dict.fromkeys([v for pair in pairs for v in pair])
        touched = {vpart[v] for v in met}
        if len(touched) != 2:
            b.append(("b", f"edge part {ekey(y)} touches {len(touched)} parts"))
        if not _is_complete_bipartite(pairs, met):
            c.append(("c", f"edge part {ekey(y)} is not complete bipartite"))
        for v in met:
            meets.setdefault(v, []).append(y)

    # over the vertices in the order first met: (d) every vertex meets at most
    # two edge parts, and (e) a vertex part holds at most one vertex meeting
    # any two edge parts
    seen = set()
    for v, parts in meets.items():
        if len(parts) > 2 and not d:
            d.append(("d", f"vertex {vertex(v)} meets {len(parts)} edge parts"))
        for pair in combinations(parts, 2):
            tag = (vpart[v], *pair)
            if tag in seen:
                e.append(("e", f"two vertices of {vkey(vpart[v])} meet both parts"))
            else:
                seen.add(tag)
    return PartitionCheck(not a, not b, not c, not d, not e, a + b + c + d + e)


def _is_complete_bipartite(pairs, ends):
    """True when the index pairs, whose ends are ``ends``, are the edges of a
    complete bipartite graph, each once: one side is the neighbours of one
    vertex, every pair has one end on it, and the distinct pairs number the
    sides' product."""
    if not pairs:
        return True
    x = pairs[0][0]
    side = {j if i == x else i for i, j in pairs if x in (i, j)}
    if len(pairs) != len(side) * (len(ends) - len(side)):
        return False
    for i, j in pairs:
        if (i in side) == (j in side):
            return False
    return len(set(pairs)) == len(pairs)


def quotient(H, partition):
    """Quotient multigraph: one vertex per vertex part, one edge per edge part."""
    vpart, eparts = _numbered(H, partition)
    verts = [str(k) for k in partition.vertex_parts]
    lo, hi = H.ends
    edges = []
    for key, members in sorted(zip(partition.edge_parts, eparts)):
        parts = {vpart[lo[k]] for k in members} | {vpart[hi[k]] for k in members}
        if len(parts) != 2:
            raise PartitionMismatch(f"edge part {key} does not touch exactly two parts")
        u, v = sorted(verts[x] for x in parts)
        edges.append((str(key), u, v))
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
    """``quotient_embedding_check`` on a partition ``part`` of ``H`` keyed by
    links: a vertex part numbered ``x`` (``_numbered``) maps to the index of
    its key in ``lower``, and an edge part is looked up by the unit tuple of
    its key among the labels of ``lower``; ``_embeds`` checks the numbers."""
    vpart, eparts = _numbered(H, part)
    image = [lower.index.get(key) for key in part.vertex_parts]
    if None in image:
        return False
    lower_ends = {lab.units: (i, j) for i, j, lab in lower.edges}
    return _embeds(H.ends, [image[x] for x in vpart], set(image),
                   [(members, lower_ends.get(key.units))
                    for key, members in zip(part.edge_parts, eparts)],
                   [edge[:2] for edge in lower.edges])


def _embeds(ends, covered, image, eparts, lower_pairs):
    """Whether the quotient of a graph with the edge end tables ``ends`` (as
    in ``_almost_standard``) maps onto the subgraph induced by ``image`` in a
    lower graph with edge end pairs ``lower_pairs``.  Vertex ``i`` maps to
    lower vertex ``covered[i]``, and ``eparts`` pairs the edge indices of
    each edge part with the ends of the lower edge it maps to, ``None`` when
    there is none."""
    lo, hi = ends
    mu = {}
    for members, lower_ends in eparts:
        if lower_ends is None:
            return False
        # incident vertex parts must map to the windows of the key
        touched = {covered[lo[k]] for k in members} | {covered[hi[k]] for k in members}
        if touched != set(lower_ends):
            return False
        i, j = lo[members[0]], hi[members[0]]
        pair = (covered[i], covered[j]) if covered[i] <= covered[j] else (covered[j], covered[i])
        mu[pair] = mu.get(pair, 0) + 1
    # induced-subgraph correspondence, edge part counts against all lower edges
    lower_counts = {}
    for i, j in lower_pairs:
        if i in image and j in image:
            pair = (i, j) if i < j else (j, i)
            lower_counts[pair] = lower_counts.get(pair, 0) + 1
    return mu == lower_counts


def _natural_parts(levels, ell):
    """The natural partition of the ``ell``-link graph on kernel ids, for
    ``ell >= 2``, read off levels that hold every arc of lengths ``ell - 2``
    to ``ell + 1``.

    Per ``ell``-link in canonical order, the vertex part is its middle
    ``(ell - 2)``-link, whose id is its vertex index in the link graph two
    shorter; per ``(ell + 1)``-link in canonical order, the edge part is its
    middle ``(ell - 1)``-link, whose id is its label index there, in
    canonical order.  An arc without its first and last dart is the suffix of
    its parent (``_middle_ids``)."""
    return _middle_ids(levels, ell), _middle_ids(levels, ell + 1)


def _natural_check(levels, ell, vkey, ekey, vertex):
    """Lemma 4.1 on kernel ids: ``verify_almost_standard`` of the natural
    partition of the ``ell``-link graph (``_natural_parts``), and whether its
    quotient embeds in the link graph two shorter.

    The edges are taken in canonical label order and the edge parts in order
    of their first label; ``vkey``, ``ekey`` and ``vertex`` name a vertex
    part, an edge part and a vertex by their ids in the failure texts."""
    vpart, epart = _natural_parts(levels, ell)
    tails, heads = _window_ids(levels, ell)
    ends = (array("i", [a if a < b else b for a, b in zip(tails, heads)]),
            array("i", [b if a < b else a for a, b in zip(tails, heads)]))
    groups = defaultdict(list)
    for x, y in enumerate(epart):
        groups[y].append(x)
    keys, eparts = list(groups), list(groups.values())
    check = _almost_standard(ends, vpart, eparts, vkey, lambda z: ekey(keys[z]), vertex)
    lower = list(zip(*_window_ids(levels, ell - 2)))
    embeds = _embeds(ends, vpart, set(vpart), list(zip(eparts, map(lower.__getitem__, keys))),
                     lower)
    return check, embeds


def link_graph_connected(G, ell, limit=None):
    """Connectivity of the link graph via the hub criterion.

    The criterion: the hub subgraph is connected and every link can be shunted
    to a link lying inside the hub.  A hub holding every edge of ``G`` (at
    ``ell = 0``, every vertex) holds every link, so only a connected hub that
    misses some needs the shunt search.  The search runs over the link graph
    built under the limits that ``link_graph`` checks; when the hub hosts no
    link at all the criterion is silent and we fall back to direct
    breadth-first search of that same graph.

    One count of the arcs up to ``ell + 1`` gives the number of links, the
    hub and the levels of the search; the ``(ell + 1)``-links are checked
    against ``limit`` only when the search builds its graph.
    """
    if ell < 0:
        raise InvalidParameter(f"arc length must be >= 0, got {ell}")
    totals, fwd = _walks(G, ell + 1)
    hub = _hub_graph(G, ell, _middle_units(G, ell, (totals, fwd), limit))

    def graph():
        _check_limit(_arcs(totals, ell + 1), _link_cap(ell + 1, limit))
        levels = _arc_levels(G, fwd, ell, ell + 1)
        return levels, _windows_graph(G, ell, levels)

    arcs = _arcs(totals, ell)
    return _hub_criterion(G, ell, arcs if ell == 0 else arcs // 2, hub, graph)


def _hub_criterion(G, ell, n_links, hub, graph):
    """``link_graph_connected`` for the ``n_links`` ``ell``-links, with ``hub``
    their hub subgraph: ``graph()`` gives kernel levels that hold every
    ``ell``- and ``(ell + 1)``-arc and the link graph on them, or raises what
    ``link_graph`` raises; only a connected hub that misses a unit reads it."""
    if n_links <= 1:
        return True
    if not hub.is_connected():
        return False
    if (hub.m == G.m) if ell else (hub.n == G.n):
        return True
    levels, H = graph()
    reached = _shunt_search(G, ell, hub, levels, H)
    if not reached:
        # degenerate: hub too small to host a link of this length
        return H.is_connected()
    return reached == n_links


def shunt_reach(G, ell, hub):
    """How many ``ell``-links of ``G`` shunt to a link lying inside the
    subgraph ``hub``; 0 when no ``ell``-link lies inside it."""
    levels = _arc_levels(G, _walks(G, ell + 1)[1], ell, ell + 1)
    return _shunt_search(G, ell, hub, levels, _windows_graph(G, ell, levels))


def _shunt_search(G, ell, hub, levels, H):
    """``shunt_reach`` on kernel levels that hold every ``ell``- and
    ``(ell + 1)``-arc and the link graph ``H`` built on them.

    A one-step shunt is a link-graph edge, so this is a search over kernel ids
    from the links all of whose edges (at length 0, whose vertex) are in ``hub``.
    """
    inside = _inside(G, levels, ell, hub)
    return len(reachable(H.adjacency(), compress(_link_ids(levels[ell]), inside)))
