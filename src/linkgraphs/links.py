"""Arcs, links, shunting and the hub subgraph.

An arc of length ``ell`` is an alternating unit sequence
``(v0, e1, v1, ..., e_ell, v_ell)`` where consecutive edges differ; a link is
the class of an arc and its reverse, represented by the lexicographically
smaller unit tuple.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    BacktrackEdge,
    EndpointMismatch,
    InvalidParameter,
    LengthMismatch,
    LimitExceeded,
    WindowTooLong,
)

DEFAULT_LIMIT = 10**6


@dataclass(frozen=True, order=True)
class Arc:
    """Directed walk with no immediate edge repetition."""

    units: tuple

    @property
    def length(self):
        return len(self.units) // 2

    @property
    def tail_vertex(self):
        return self.units[0]

    @property
    def head_vertex(self):
        return self.units[-1]

    @property
    def tail_edge(self):
        return self.units[1] if len(self.units) > 1 else None

    @property
    def head_edge(self):
        return self.units[-2] if len(self.units) > 1 else None

    def vertices(self):
        return self.units[0::2]

    def edges(self):
        return self.units[1::2]

    def reverse(self):
        return Arc(self.units[::-1])

    def window(self, i, j):
        """Segment arc from position ``i`` to ``j`` (``i <= j``)."""
        if not (0 <= i <= j <= self.length):
            raise InvalidParameter(f"bad window [{i}, {j}] on length {self.length}")
        return Arc(self.units[2 * i : 2 * j + 1])

    def __str__(self):
        return "(" + " ".join(self.units) + ")"


@dataclass(frozen=True, order=True)
class Link:
    """An arc identified with its reverse; ``units`` is the canonical tuple."""

    units: tuple

    @classmethod
    def from_arc(cls, arc):
        u = arc.units
        r = u[::-1]
        return cls(u if u <= r else r)

    @classmethod
    def from_units(cls, units):
        return cls.from_arc(Arc(tuple(units)))

    @property
    def length(self):
        return len(self.units) // 2

    def as_arc(self):
        return Arc(self.units)

    def orientations(self):
        """The one or two distinct arcs representing this link."""
        a = Arc(self.units)
        if self.length == 0:
            return (a,)
        return (a, a.reverse())

    def vertices(self):
        return self.units[0::2]

    def edges(self):
        return self.units[1::2]

    def endpoints(self):
        return (self.units[0], self.units[-1])

    def middle_unit(self):
        """Central vertex for even length, central edge for odd length."""
        return self.units[self.length]

    def middle_segment(self, k):
        """Middle segment of length ``k`` (``k`` must match parity of length)."""
        ell = self.length
        if k > ell or (ell - k) % 2 != 0:
            raise InvalidParameter(f"no middle segment of length {k} in length {ell}")
        return Link.from_units(self.units[ell - k : ell + k + 1])

    def __str__(self):
        return "[" + " ".join(self.units) + "]"


@dataclass(frozen=True)
class ShuntTrace:
    """All windows and single steps of a window slid along a longer arc."""

    base: Arc
    window: int
    images: tuple  # Links of length `window`
    steps: tuple  # Links of length `window + 1`


def canonicalize(arc):
    return Link.from_arc(arc)


def validate_arc(G, arc):
    """Check the arc invariants element by element against ``G``."""
    u = arc.units
    if len(u) % 2 == 0 or not u:
        return False
    if not G.has_vertex(u[0]):
        return False
    for k in range(1, len(u), 2):
        eid, v_prev, v_next = u[k], u[k - 1], u[k + 1]
        if not G.has_edge(eid):
            return False
        if set(G.endpoints(eid)) != {v_prev, v_next} or v_prev == v_next:
            return False
        if k >= 3 and u[k] == u[k - 2]:
            return False
    return True


def is_link_of(G, link):
    return validate_arc(G, link.as_arc())


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


def is_path(link):
    """No repeated vertices."""
    vs = link.vertices()
    return len(set(vs)) == len(vs)


def is_cycle(link):
    """Closed, of length >= 2, and simple once the last edge is dropped."""
    ell = link.length
    if ell < 2:
        return False
    u = link.units
    if u[0] != u[-1]:
        return False
    vs = u[0:-2:2]
    return len(set(vs)) == len(vs)


def conjunction(a, b):
    """Concatenate two arcs sharing an endpoint without backtracking."""
    if a.head_vertex != b.tail_vertex:
        raise EndpointMismatch(
            f"head {a.head_vertex!r} of {a} != tail {b.tail_vertex!r} of {b}"
        )
    if a.length > 0 and b.length > 0 and a.head_edge == b.tail_edge:
        raise BacktrackEdge(f"{a} . {b} repeats edge {a.head_edge!r}")
    return Arc(a.units + b.units[1:])


def shunt_trace(base, ell):
    """Slide an ``ell``-window along ``base``; one step per unit shift."""
    if ell > base.length:
        raise WindowTooLong(f"window {ell} exceeds arc length {base.length}")
    s = base.length - ell
    images = tuple(Link.from_arc(base.window(i, i + ell)) for i in range(s + 1))
    steps = tuple(Link.from_arc(base.window(i - 1, i + ell)) for i in range(1, s + 1))
    return ShuntTrace(base, ell, images, steps)


def one_step_shunts(G, link):
    """Every ``(Q, R)`` with ``Q`` a one-longer link having ``link`` as a window.

    This is exactly the labelled edge neighbourhood of ``link`` in the link
    graph; entries are sorted and pairwise distinct in ``Q``.
    """
    ell = link.length
    res = []
    if ell == 0:
        v = link.units[0]
        for eid, w in G.incident(v):
            res.append((Link.from_units((v, eid, w)), Link((w,))))
        res.sort()
        return res
    for arc in link.orientations():
        head = arc.head_vertex
        head_edge = arc.head_edge
        for eid, w in G.incident(head):
            if eid == head_edge:
                continue
            ext = Arc(arc.units + (eid, w))
            res.append((Link.from_arc(ext), Link.from_arc(Arc(ext.units[2:]))))
    res.sort()
    return res


def can_shunt(G, L, R, middle_filter=None):
    """Breadth-first reachability from ``L`` to ``R`` over one-step shunts.

    Returns ``(ok, witness)`` where the witness lists the step links.  When
    ``middle_filter`` is given, intermediate images are restricted to links
    whose middle unit satisfies it.
    """
    if L.length != R.length:
        raise LengthMismatch(f"lengths {L.length} != {R.length}")
    if middle_filter is not None and not (middle_filter(L) and middle_filter(R)):
        return False, None
    if L == R:
        return True, []
    parent = {L: None}
    queue = deque([L])
    while queue:
        cur = queue.popleft()
        for q, nxt in one_step_shunts(G, cur):
            if nxt in parent:
                continue
            if middle_filter is not None and not middle_filter(nxt):
                continue
            parent[nxt] = (cur, q)
            if nxt == R:
                witness = []
                node = nxt
                while parent[node] is not None:
                    node, step = parent[node]
                    witness.append(step)
                witness.reverse()
                return True, witness
            queue.append(nxt)
    return False, None


def middle_units(G, ell, limit=None):
    """The set of middle units over all ``ell``-links."""
    return {link.middle_unit() for link in enumerate_links(G, ell, limit)}


def hub_subgraph(G, ell, limit=None):
    """Subgraph induced by the middle units of all ``ell``-links.

    For even ``ell`` the middle units are vertices and the subgraph is the
    maximal one on them; for odd ``ell`` they are edges and the subgraph is
    the minimal one containing them.
    """
    units = middle_units(G, ell, limit)
    if ell % 2 == 0:
        return G.induced_subgraph(units)
    return G.edge_subgraph(units)

