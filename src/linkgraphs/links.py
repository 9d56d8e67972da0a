"""Arcs, links, shunting and the hub subgraph.

An arc of length ``ell`` is an alternating unit sequence
``(v0, e1, v1, ..., e_ell, v_ell)`` where consecutive edges differ; a link is
the class of an arc and its reverse, represented by the lexicographically
smaller unit tuple.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import add, ge, le

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
        return cls.from_units(arc.units)

    @classmethod
    def from_units(cls, units):
        u = tuple(units)
        r = u[::-1]
        return cls(u if u <= r else r)

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


# -- the integer arc kernel ----------------------------------------------------
#
# An ell-arc is a walk of ell darts (edge orientations) with no dart followed
# by its own twin: a path in the non-backtracking digraph on the darts of G.
# Level L holds L-arcs as integer ids; arc k of level L is arc parent[k] of
# level L-1 followed by dart last[k].  Levels are built parent by parent with
# successor darts in dart order, so ids run in lexicographic unit order, and
# the link test ``units <= units[::-1]`` becomes ``k <= rev[k]``.


def _walks(G, ell):
    """Count the arcs of each length up to ``ell`` by first dart, without
    enumerating them.

    Returns ``(totals, fwd)``: ``totals[L]`` is the number of ``L``-arcs, and
    ``fwd[d]`` is how many more darts, at most ``ell - 1``, a walk can take
    after dart ``d``; walking back from ``d`` reaches ``fwd[twin[d]]``.
    """
    if ell < 0:
        raise InvalidParameter(f"arc length must be >= 0, got {ell}")
    D = G.darts()
    totals = [G.n, len(D.head)][: ell + 1]
    count = [1] * len(D.head)  # the L-arcs starting with each dart
    fwd = [0] * len(D.head)
    bounds = list(zip(D.start, D.start[1:]))
    for L in range(2, ell + 1):
        # the successors of d are the darts leaving its head, but its twin
        out = [sum(count[lo:hi]) for lo, hi in bounds]
        count = [out[h] - c for h, c in zip(D.head, map(count.__getitem__, D.twin))]
        if 0 in count:
            fwd = [L - 1 if c else f for c, f in zip(count, fwd)]
        else:
            fwd = [L - 1] * len(fwd)
        totals.append(sum(count))
        if not totals[-1]:
            totals += [0] * (ell - L)
            break
    return totals, fwd


def has_arc(G, ell):
    """True when ``G`` has an ``ell``-arc."""
    return _walks(G, ell)[0][ell] > 0


def _check_limit(count, cap):
    """Raise what an enumeration stopping one arc past ``cap`` raises."""
    bound = max(cap, 0)
    if count > bound:
        raise LimitExceeded(bound + 1, cap)


def _link_cap(ell, limit):
    """``enumerate_links``' limit as a cap on arcs: twice ``limit`` for
    ``ell >= 1``, where every link is an arc and its reverse."""
    cap = DEFAULT_LIMIT if limit is None else limit
    return cap if ell == 0 else 2 * cap


# arcs in a level from which its tables are packed, and from which the next
# level, when full, is built a block at a time
_PACK_FROM = 1024


class _Level:
    """One level of the kernel.  For arc ``k`` of level ``L``: ``parent[k]``
    and ``suffix[k]`` are its arc minus the last and minus the first dart, at
    level ``L - 1``; ``rev[k]`` is its reverse and ``back[k]`` the twin of its
    first dart.  The arcs of level ``L`` whose parent is ``p`` are
    ``kids[p]:kids[p + 1]``.  A level built by ``_full_level`` also has
    ``rank[k]``, the rank of ``back[k]`` among the children of the arc that
    ``rev[k]`` extends; other levels have ``rank`` ``None``."""

    __slots__ = ("parent", "last", "suffix", "rev", "kids", "back", "rank")

    def __init__(self, parent, last, suffix, rev, kids, back, rank=None):
        self.parent, self.last, self.suffix, self.rev = parent, last, suffix, rev
        self.kids, self.back, self.rank = kids, back, rank

    def pack(self):
        """Store the tables of a large level as ``array('i')`` (4 bytes an entry,
        not a list slot plus an int object); small ones stay lists, which are
        cheaper to build and read."""
        if len(self.last) >= _PACK_FROM:
            for name in ("parent", "last", "suffix", "rev"):
                setattr(self, name, array("i", getattr(self, name)))


def _arc_levels(G, fwd, ell, top):
    """Levels ``0..top`` of the arcs of ``G`` that lie inside some ``ell``-arc;
    level 0 holds the vertices.

    A partial arc from dart ``a`` to dart ``b`` at level ``L`` is kept when
    ``fwd[twin[a]] + fwd[b] >= ell - L``, so levels up to ``ell`` hold at most
    ``ell + 1`` times the ``ell``-arcs, and every arc at levels ``ell`` and
    ``ell + 1`` is kept.  Each level is closed under prefix, suffix and reverse,
    and both ``suffix(p.d) = suffix(p).d`` and
    ``rev(a.d) = rev(suffix(a.d)).twin(first(a))`` are children of arcs one
    level down.

    A level is full when it keeps every child of every parent.  A full level
    at 3 or above whose parent level holds at least ``_PACK_FROM`` arcs is
    built a block of children per parent by ``_full_level``, and there the
    suffix and the reverse of each arc are found by arithmetic on the
    offsets one level down.  Every other level is built arc by arc by
    ``_pruned_level``, which finds them by binary search among the children.
    In a graph of minimum degree 2 every level is full.  Every level keeps
    ``parent``, ``last``, ``suffix`` and ``rev``; only the last two keep
    ``kids``, ``back`` and ``rank``.  ``fwd`` is the reach table of
    ``_walks(G, ell)`` or of a longer count.
    """
    levels = [_Level((), (), (), range(G.n), (), ())]
    if top == 0:
        return levels
    D = G.darts()
    head, twin = D.head, D.twin
    last = [d for d in range(len(head)) if fwd[d] + fwd[twin[d]] >= ell - 1]
    where = dict(zip(last, range(len(last))))
    parent = [D.tail[d] for d in last]
    level1 = _Level(parent, last, [head[d] for d in last], [where[twin[d]] for d in last],
                    [bisect_left(parent, v) for v in range(G.n + 1)], [twin[d] for d in last])
    levels.append(level1)
    for L in range(2, top + 1):
        prev = levels[L - 1]
        if L > 2 and len(prev.last) >= _PACK_FROM and _keeps_all(G, prev, fwd, ell - L):
            levels.append(_full_level(G, levels))
        else:
            levels.append(_pruned_level(D, prev, fwd, ell - L))
        prev.pack()
        if L > 2:
            old = levels[L - 2]
            old.kids = old.back = old.rank = None
    levels[top].pack()
    return levels


def _keeps_all(G, prev, fwd, short):
    """True when the level after ``prev`` keeps every child: every successor
    ``d`` of every ``last[p]`` has ``fwd[d] >= short - fwd[back[p]]``."""
    if short <= 0:
        return True
    succ = G.successors()
    low = {x: min(map(fwd.__getitem__, succ[x]), default=short) for x in set(prev.last)}
    lows = map(low.__getitem__, prev.last)
    return min(map(add, lows, map(fwd.__getitem__, prev.back)), default=short) >= short


def _full_level(G, levels):
    """The level after ``levels[-1]``, at level 3 or above, when it keeps
    every child: whole blocks of children per parent, and no binary search.

    The children of ``p`` are the successors of ``last[p]`` in dart order.
    The children of ``suffix(p)`` one level down are all those successors too,
    since the level is closed under suffix, so child ``j`` of ``p`` has suffix
    ``kids[suffix[p]] + j``.  The reverse of a child ``k`` of ``p`` is child
    ``b = back[p]`` of ``q = rev[suffix[k]]``.  With ``y = last[q]``, ``b``
    leaves the head of ``y``, so its rank among the children of ``q`` is
    ``b - start[head[y]] - (twin[y] < b)``.  ``twin[y]`` is the second dart of
    ``k``, so the rank depends only on the first two darts, and each arc takes
    its parent's ``rank``.
    """
    D, prev = G.darts(), levels[-1]
    blocks = list(map(G.successors().__getitem__, prev.last))
    sizes = list(map(len, blocks))
    kids = list(accumulate(sizes, initial=0))
    last = list(chain.from_iterable(blocks))
    parent = list(chain.from_iterable(map(repeat, range(len(sizes)), sizes)))
    back = list(map(prev.back.__getitem__, parent))
    pkids = prev.kids
    shift = [pkids[s] - k for s, k in zip(prev.suffix, kids)]
    suffix = [k + shift[p] for k, p in enumerate(parent)]
    rank = prev.rank
    if rank is None:
        # the first dart of rev(p), the last of its parent, is twin(second dart of p)
        start, tail, twin, below = D.start, D.tail, D.twin, levels[-2].last
        firsts = map(below.__getitem__, map(prev.parent.__getitem__, prev.rev))
        rank = [b - start[tail[b]] - (twin[y] < b) for b, y in zip(prev.back, firsts)]
    rank = list(map(rank.__getitem__, parent))
    turned = list(map(kids.__getitem__, prev.rev))  # kids[rev[s]] per arc s one level down
    rev = [turned[s] + r for s, r in zip(suffix, rank)]
    return _Level(parent, last, suffix, rev, kids, back, rank)


def _pruned_level(D, prev, fwd, short):
    """The level after ``prev`` arc by arc: child ``p.d`` is kept when
    ``fwd[d] >= short - fwd[back[p]]``, and its suffix and reverse are found
    by binary search among the children of arcs one level down."""
    start, head, twin = D.start, D.head, D.twin
    plast, pback, psuffix, pkids = prev.last, prev.back, prev.suffix, prev.kids
    parent, last, back, suffix, kids = [], [], [], [], [0]
    for p, x in enumerate(plast):
        b, t, h = pback[p], twin[x], head[x]
        need = short - fwd[b]
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
    return _Level(parent, last, suffix, rev, kids, back)


def _canonical(level):
    """Mask of the arcs of a level that are the canonical orientation of their link."""
    return bytearray(map(le, range(len(level.rev)), level.rev))


def _link_ids(level):
    """Link index of every arc of a level: canonical arcs numbered in order."""
    ids, count = array("i"), 0
    for k, r in enumerate(level.rev):
        if k <= r:
            ids.append(count)
            count += 1
        else:
            ids.append(ids[r])
    return ids


def _unit_tuples(G, levels, want):
    """Unit tuples of the arcs ``want`` selects, as ``{level: mask}``: per level
    the selected arcs in id order.  Only they and their prefixes get tuples, and
    a level's tuples are dropped once the next level's are built."""
    top = max(want)
    need = {top: want[top]}
    for L in range(top, 1, -1):
        mask = bytearray(want[L - 1]) if L - 1 in want else bytearray(len(levels[L - 1].last))
        for p in compress(levels[L].parent, need[L]):
            mask[p] = 1
        need[L - 1] = mask
    steps = G.darts().steps
    units = [(v,) for v in G.vertices]
    out = {0: list(compress(units, want[0]))} if 0 in want else {}
    for L in range(1, top + 1):
        lv = levels[L]
        units = [units[p] + steps[d] if keep else None
                 for p, d, keep in zip(lv.parent, lv.last, need[L])]
        if L in want:
            out[L] = list(compress(units, want[L]))
    return out


def _all(n):
    return bytearray(b"\x01") * n


def _kernel(G, ell, caps):
    """Check each ``{length: cap}`` of ``caps`` on the arc counts, as an
    enumeration stopping one arc past the cap would, then build the levels
    up to the longest length."""
    top = max(caps)
    totals, fwd = _walks(G, top)
    for length in sorted(caps):
        _check_limit(totals[length], caps[length])
    return _arc_levels(G, fwd, ell, top)


def _arc_cap(limit):
    """``enumerate_arcs``' limit as a cap on arcs."""
    return 2 * DEFAULT_LIMIT if limit is None else limit


def enumerate_arcs(G, ell, limit=None):
    """All ``ell``-arcs in lexicographic unit order."""
    levels = _kernel(G, ell, {ell: _arc_cap(limit)})
    if ell == 0:
        return [Arc((v,)) for v in G.vertices]
    want = _all(len(levels[ell].last))
    return [Arc(u) for u in _unit_tuples(G, levels, {ell: want})[ell]]


def enumerate_links(G, ell, limit=None):
    """All ``ell``-links in canonical order: one per arc and its reverse."""
    levels = _kernel(G, ell, {ell: _link_cap(ell, limit)})
    if ell == 0:
        return [Link((v,)) for v in G.vertices]
    canon = _canonical(levels[ell])
    return [Link(u) for u in _unit_tuples(G, levels, {ell: canon})[ell]]


def link_count(G, ell, limit=None):
    """The number of ``ell``-links, counted without enumerating them; over
    ``limit`` it raises what ``enumerate_links`` raises."""
    totals, _ = _walks(G, ell)
    _check_limit(totals[ell], _link_cap(ell, limit))
    return totals[ell] if ell == 0 else totals[ell] // 2


def _window_ids(levels, ell, canon):
    """The windows of the ``(ell + 1)``-links as two tables, read off kernel
    levels that hold every ``ell``- and ``(ell + 1)``-arc, where ``canon`` is
    ``_canonical(levels[ell + 1])``: per ``(ell + 1)``-link in canonical
    order, the link indices of its kernel parent and suffix."""
    link_of = _link_ids(levels[ell])
    top = levels[ell + 1]
    return [array("i", map(link_of.__getitem__, compress(table, canon)))
            for table in (top.parent, top.suffix)]


def arc_windows(G, ell, limit=None):
    """What the arc digraph is built from: the ``ell``-arcs, the
    ``(ell + 1)``-arcs, and per ``(ell + 1)``-arc the indices of its tail and
    head windows among the ``ell``-arcs."""
    cap = _arc_cap(limit)
    return _arc_windows(G, _kernel(G, ell, {ell: cap, ell + 1: cap}), ell)


def _arc_windows(G, levels, ell):
    """``arc_windows`` read off kernel levels that hold every ``ell``- and
    ``(ell + 1)``-arc."""
    top = levels[ell + 1]
    units = _arc_units(G, levels, ell)
    windows = list(zip(top.parent, top.suffix))
    return list(map(Arc, units[ell])), list(map(Arc, units[ell + 1])), windows


def _arc_units(G, levels, ell):
    """The unit tuples of every ``ell``- and ``(ell + 1)``-arc, by level."""
    return _unit_tuples(G, levels, {L: _all(len(levels[L].last)) for L in (ell, ell + 1)})


def _middle_arcs(levels, ell, h, arcs):
    """The ids at level ``ell - 2 * h`` of the ``ell``-arcs ``arcs`` with
    ``h`` darts stripped from each end: an arc without its first and last
    dart is the suffix of its parent, ``h`` times over."""
    for L in range(ell, ell - 2 * h, -2):
        arcs = map(levels[L - 1].suffix.__getitem__, map(levels[L].parent.__getitem__, arcs))
    return arcs


def _middle_ids(levels, ell, below):
    """Per ``ell``-link, in canonical order, the link index of its middle
    segment of length ``ell - 2``, where ``below`` is
    ``_link_ids(levels[ell - 2])``."""
    lv = levels[ell]
    canon = compress(range(len(lv.rev)), _canonical(lv))
    return list(map(below.__getitem__, _middle_arcs(levels, ell, 1, canon)))


def _middle_tuples(G, levels, ell, s):
    """The middle segments of length ``s`` of the ``ell``-links, as canonical
    unit tuples, read off kernel levels that hold every ``ell``-arc; unit
    tuples are made only at the levels up to ``s``."""
    top, mask = levels[ell], bytearray(len(levels[s].rev))
    canon = compress(range(len(top.rev)), _canonical(top))
    for k in _middle_arcs(levels, ell, (ell - s) // 2, canon):
        mask[k] = 1
    return {min(u, u[::-1]) for u in _unit_tuples(G, levels, {s: mask})[s]}


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
    """The set of middle units over all ``ell``-links, read off the reach
    table: an edge whose darts can each walk ``h`` darts on for
    ``ell = 2h + 1``, a vertex with two darts out that can each walk
    ``h - 1`` darts on for ``ell = 2h``."""
    totals, fwd = _walks(G, ell)
    _check_limit(totals[ell], _link_cap(ell, limit))
    if ell == 0:
        return set(G.vertices)
    D, h = G.darts(), ell // 2
    if ell % 2 == 1:
        return {D.steps[d][0] for d in range(len(D.head)) if min(fwd[d], fwd[D.twin[d]]) >= h}
    able = bytes(map(ge, fwd, repeat(h - 1)))
    return {v for v, lo, hi in zip(G.vertices, D.start, D.start[1:]) if able.count(1, lo, hi) >= 2}


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

