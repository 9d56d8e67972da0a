"""Reference builders by depth-first search over unit tuples.

These are the original string-tuple implementations of arc and link
enumeration, the link graph, the arc digraph, the hub criterion and its shunt
search, the path graph, the natural partition and the embedding of its
quotient, the links of each hub component and the middle segments of
Lemma 3.5, with links canonicalised through ``Arc``.
The package builds the same objects from its integer arc kernel or from a
link graph it already holds; the tests check that both agree.

``arc_levels`` is the integer arc kernel as it was when every level was built
arc by arc, with each suffix and reverse found by binary search; the kernel
now builds a full level a block of children per parent, and the tests check
that its tables are the same.

``eager_link_graph`` is ``link_graph`` with its edges sorted by their ends
as it is built, the sort the package makes on the first read of ``ends``;
``one_step_shunts`` extends ``Arc`` objects and sorts ``Link`` pairs; the
package reads the shunts of a link of length at least 1 off unit tuples.

``verify_almost_standard`` checks conditions (a)-(e) with the parts numbered
by their ``Link`` keys in sorted order, and ``natural_iso`` matches the chain
digraph to the arc digraph through sorted and hashed ``Arc`` objects.  The
package checks both on integers, for the natural partition and the arc
digraph on kernel ids.  ``_is_complete_bipartite`` is condition (c) as it was
before it read the end set its caller builds.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from itertools import repeat
from operator import attrgetter, floordiv, mod

from linkgraphs.construction import (
    AlmostStandardPartition,
    LabeledDigraph,
    LabeledGraph,
    PartitionCheck,
    partial_link_graph,
)
from linkgraphs.errors import InvalidParameter, LimitExceeded, PartitionMismatch
from linkgraphs.links import (
    DEFAULT_LIMIT,
    Arc,
    Link,
    _canonical,
    _keep_for_links,
    _kernel,
    _Level,
    _link_cap,
    _window_ids,
    hub_subgraph,
    is_cycle,
    is_path,
)


def canonical(units):
    """The link of a unit tuple: the smaller of its arc and the reverse arc."""
    arc = Arc(tuple(units))
    return Link(min(arc, arc.reverse()).units)


def middle_segment(link, k):
    """The middle segment of length ``k`` of a link, canonicalised through ``Arc``."""
    ell = link.length
    return canonical(link.units[ell - k : ell + k + 1])


def enumerate_arcs(G, ell, limit=None):
    """All ``ell``-arcs in lexicographic unit order, by depth-first extension."""
    if ell < 0:
        raise InvalidParameter(f"arc length must be >= 0, got {ell}")
    cap = 2 * DEFAULT_LIMIT if limit is None else limit
    out = []
    if ell == 0:
        for v in G.vertices:
            out.append(Arc((v,)))
            if len(out) > cap:
                raise LimitExceeded(len(out), cap)
        return out
    incident = G.incident
    for start in G.vertices:
        # stack of partial unit tuples, extended in sorted edge order
        stack = [(start,)]
        while stack:
            units = stack.pop()
            if len(units) == 2 * ell + 1:
                out.append(Arc(units))
                if len(out) > cap:
                    raise LimitExceeded(len(out), cap)
                continue
            last_edge = units[-2] if len(units) > 1 else None
            head = units[-1]
            # reversed: the stack pops smallest edge id first
            for eid, w in reversed(incident(head)):
                if eid != last_edge:
                    stack.append(units + (eid, w))
    return out


def enumerate_links(G, ell, limit=None):
    """All ``ell``-links in canonical order; exact 2:1 dedup from arcs."""
    cap = DEFAULT_LIMIT if limit is None else limit
    if ell == 0:
        arcs = enumerate_arcs(G, 0, cap)
        return [Link(a.units) for a in arcs]
    arcs = enumerate_arcs(G, ell, 2 * cap)
    out = []
    for a in arcs:
        u = a.units
        if u <= u[::-1]:
            out.append(Link(u))
            if len(out) > cap:
                raise LimitExceeded(len(out), cap)
    return out


def link_graph(G, ell, limit=None):
    """The graph on ``ell``-links whose edges are the one-longer links."""
    verts = tuple(enumerate_links(G, ell, limit))
    idx = {v: i for i, v in enumerate(verts)}
    edge_list = []
    for q in enumerate_links(G, ell + 1, limit):
        w0 = canonical(q.units[: 2 * ell + 1])
        w1 = canonical(q.units[2:])
        assert w0 != w1, f"windows of {q} coincide"
        i, j = idx[w0], idx[w1]
        if i > j:
            i, j = j, i
        edge_list.append((i, j, q))
    edge_list.sort()
    return LabeledGraph(ell, verts, tuple(edge_list), G, idx)


def eager_link_graph(G, ell, limit=None):
    """``link_graph`` on kernel ids with ``ends``, and the label index of each
    edge, sorted as it is built: a stable sort of the label-order windows
    by their ends ``i < j``."""
    levels = _kernel(G, ell, {ell: _link_cap(ell, limit), ell + 1: _link_cap(ell + 1, limit)})
    tails, heads = _window_ids(levels, ell)
    n = _canonical(levels[ell]).count(1)
    key = [a * n + b if a < b else b * n + a for a, b in zip(tails, heads)]
    order = array("i", sorted(range(len(key)), key=key.__getitem__))
    key = list(map(key.__getitem__, order))
    H = LabeledGraph(ell, (), (), G)
    H.n, H._pending, H._order = n, levels, order
    H._core = H._ends = (array("i", map(floordiv, key, repeat(n))),
                         array("i", map(mod, key, repeat(n))))
    _keep_for_links(levels)
    return H


def one_step_shunts(G, link):
    """Every ``(Q, R)`` with ``Q`` a one-longer link having ``link`` as a
    window, sorted: each orientation extended at its head as an ``Arc``."""
    if link.length == 0:
        v = link.units[0]
        return sorted((canonical((v, eid, w)), Link((w,))) for eid, w in G.incident(v))
    res = []
    for arc in link.orientations():
        for eid, w in G.incident(arc.head_vertex):
            if eid != arc.head_edge:
                ext = Arc(arc.units + (eid, w))
                res.append((canonical(ext.units), canonical(ext.units[2:])))
    res.sort()
    return res


def arc_digraph(G, ell, limit=None):
    """Digraph on ``ell``-arcs; one labelled arc per one-longer arc."""
    if ell < 1:
        raise InvalidParameter(f"arc digraph needs ell >= 1, got {ell}")
    verts = tuple(enumerate_arcs(G, ell, limit))
    idx = {a: i for i, a in enumerate(verts)}
    arcs = []
    for q in enumerate_arcs(G, ell + 1, limit):
        arcs.append((idx[q.window(0, ell)], idx[q.window(1, ell + 1)], q))
    arcs.sort()
    return LabeledDigraph(ell, verts, tuple(arcs), G, idx)


def link_graph_connected(G, ell, limit=None):
    """The hub criterion with a breadth-first search over one-step shunts."""
    all_links = enumerate_links(G, ell, limit)
    if len(all_links) <= 1:
        return True
    hub = hub_subgraph(G, ell, limit)
    if not hub.is_connected():
        return False
    reached = shunt_reach(G, ell, hub)
    if not reached:
        return link_graph(G, ell, limit).is_connected()
    return reached == len(all_links)


def shunt_reach(G, ell, hub):
    """How many ``ell``-links of ``G`` reach, by one-step shunts, a link of
    the subgraph ``hub``, enumerated on ``hub`` itself."""
    hub_links = set(enumerate_links(hub, ell))
    seen = set(hub_links)
    queue = deque(sorted(hub_links))
    while queue:
        cur = queue.popleft()
        for _, nxt in one_step_shunts(G, cur):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


def path_graph(G, ell, limit=None):
    """The path graph by enumeration: the ``ell``-paths, joined by
    ``partial_link_graph`` through the one-longer paths and cycles."""
    if ell <= 1:
        return link_graph(G, ell, limit).simplify()
    paths = [p for p in enumerate_links(G, ell, limit) if is_path(p)]
    quals = [q for q in enumerate_links(G, ell + 1, limit) if is_path(q) or is_cycle(q)]
    return partial_link_graph(G, paths, quals, limit).simplify()


def natural_partition(H):
    """Vertices by their middle segment two shorter, edges one shorter."""
    vparts, eparts = {}, {}
    for i, link in enumerate(H.vertices):
        vparts.setdefault(middle_segment(link, H.ell - 2), set()).add(i)
    for k, (_, _, lab) in enumerate(H.edges):
        eparts.setdefault(middle_segment(lab, H.ell - 1), set()).add(k)
    return AlmostStandardPartition(
        H.ell,
        {k: frozenset(v) for k, v in vparts.items()},
        {k: frozenset(v) for k, v in eparts.items()},
    )


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


def verify_almost_standard(H, partition):
    """Check conditions (a)-(e) independently; raises only on non-partitions.

    Part keys are numbered in sorted key order, and the checks work on those
    numbers."""
    failures = []
    vkeys = sorted(partition.vertex_parts, key=attrgetter("units"))
    ekeys = sorted(partition.edge_parts, key=attrgetter("units"))
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


def _flatten_chain(chain):
    """The arc a chain of 1-arcs spells, or ``None`` when it breaks."""
    units = chain[0].units
    for nxt in chain[1:]:
        if nxt.tail_vertex != units[-1]:
            return None
        units = units + nxt.units[1:]
    return Arc(units)


def natural_iso(A, C):
    """Whether flattening the chains of the chain digraph ``C`` of length
    ``ell`` is an isomorphism onto the ``ell``-arc digraph ``A``: a bijection
    onto its vertices under which the labelled arcs correspond one to one."""
    ell = A.ell
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


def hub_component_links(G, ell, limit=None):
    """Per component of the hub, in ``components()`` order: the links of the
    component, by enumerating them on its induced subgraph, and the test for
    a link whose middle unit lies in it."""
    hub = hub_subgraph(G, ell, limit)
    out = []
    for verts in hub.components():
        comp = hub.induced_subgraph(verts)
        if ell % 2 == 0:
            member = lambda link, comp=comp: comp.has_vertex(link.middle_unit())
        else:
            member = lambda link, comp=comp: comp.has_edge(link.middle_unit())
        out.append((set(enumerate_links(comp, ell, limit)), member))
    return out


def middle_segment_sets(G, ell, limit=None):
    """The middle segments Lemma 3.5 looks up at ``ell``: for ``s`` = 0, 1, 2
    those of length ``s`` of the links of length ``2 * (ell // 2) + s``."""
    base = 2 * (ell // 2)
    return [{middle_segment(link, s) for link in enumerate_links(G, base + s, limit)}
            for s in (0, 1, 2)]


def quotient_embeds(H, part, lower):
    """The quotient of ``H`` by ``part`` against the link graph ``lower`` two
    shorter, with every part and vertex keyed by its link."""
    for key in part.vertex_parts:
        if key not in lower.index:
            return False
    lower_labels = {lab: (i, j) for i, j, lab in lower.edges}
    covered = {}
    for key, members in part.vertex_parts.items():
        for i in members:
            covered[i] = key
    for key, members in part.edge_parts.items():
        if key not in lower_labels:
            return False
        parts = set()
        for k in members:
            i, j, _ = H.edges[k]
            parts.add(covered[i])
            parts.add(covered[j])
        if parts != {lower.vertices[x] for x in lower_labels[key]}:
            return False
    key_idx = {key: lower.index[key] for key in part.vertex_parts}
    mu = {}
    for key, members in part.edge_parts.items():
        i, j, _ = H.edges[next(iter(members))]
        a, b = sorted((key_idx[covered[i]], key_idx[covered[j]]))
        mu[(a, b)] = mu.get((a, b), 0) + 1
    image = set(key_idx.values())
    lower_counts = {}
    for i, j, _ in lower.edges:
        if i in image and j in image:
            pair = (i, j) if i < j else (j, i)
            lower_counts[pair] = lower_counts.get(pair, 0) + 1
    return mu == lower_counts


def arc_levels(G, fwd, ell, top):
    """Levels ``0..top`` of the arcs of ``G`` that lie inside some ``ell``-arc;
    level 0 holds the vertices.

    A partial arc from dart ``a`` to dart ``b`` at level ``L`` is kept when
    ``fwd[twin[a]] + fwd[b] >= ell - L``, so levels up to ``ell`` hold at most
    ``ell + 1`` times the ``ell``-arcs, and every arc at levels ``ell`` and
    ``ell + 1`` is kept.  Each level is closed under prefix, suffix and reverse,
    and both ``suffix(p.d) = suffix(p).d`` and
    ``rev(a.d) = rev(suffix(a.d)).twin(first(a))`` are children of arcs one
    level down, found by binary search among those children.  Every level
    keeps ``parent``, ``last``, ``suffix`` and ``rev``; only the last two keep
    ``kids`` and ``back``.  ``fwd`` is the reach table of ``_walks(G, ell)``
    or of a longer count.
    """
    levels = [_Level((), (), (), range(G.n), (), ())]
    if top == 0:
        return levels
    D = G.darts()
    start, head, twin = D.start, D.head, D.twin
    last = [d for d in range(len(head)) if fwd[d] + fwd[twin[d]] >= ell - 1]
    where = dict(zip(last, range(len(last))))
    parent = [D.tail[d] for d in last]
    level1 = _Level(parent, last, [head[d] for d in last], [where[twin[d]] for d in last],
                    [bisect_left(parent, v) for v in range(G.n + 1)], [twin[d] for d in last])
    levels.append(level1)
    for L in range(2, top + 1):
        prev = levels[L - 1]
        plast, pback, psuffix, pkids = prev.last, prev.back, prev.suffix, prev.kids
        parent, last, back, suffix, kids = [], [], [], [], [0]
        for p, x in enumerate(plast):
            b, t, h = pback[p], twin[x], head[x]
            need = ell - L - fwd[b]
            # the children of suffix(p) one level down hold each suffix(p).d
            s = psuffix[p]
            lo, hi = pkids[s], pkids[s + 1]
            for d in range(start[h], start[h + 1]):
                if d != t and fwd[d] >= need:
                    lo = bisect_left(plast, d, lo, hi)
                    parent.append(p)
                    last.append(d)
                    back.append(b)
                    suffix.append(lo)
            kids.append(len(last))
        prev_rev = prev.rev
        rev = [bisect_left(last, b, kids[q], kids[q + 1])
               for b, q in zip(back, map(prev_rev.__getitem__, suffix))]
        levels.append(_Level(parent, last, suffix, rev, kids, back))
        prev.pack()
        if L > 2:
            old = levels[L - 2]
            old.kids = old.back = None
    levels[top].pack()
    return levels
