"""Arcs, links, shunting and the hub subgraph.

An arc of length ``ell`` is an alternating unit sequence
``(v0, e1, v1, ..., e_ell, v_ell)`` where consecutive edges differ; a link is
the class of an arc and its reverse, represented by the lexicographically
smaller unit tuple.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import add, and_, ge, le, ne

from .errors import (
    BacktrackEdge,
    EndpointMismatch,
    InvalidParameter,
    LengthMismatch,
    LimitExceeded,
    WindowTooLong,
)
from .multigraph import _bfs_path

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
        if not 0 <= k <= ell or (ell - k) % 2 != 0:
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

    Returns ``(totals, fwd)``: ``totals[L]`` is the number of ``L``-arcs, up
    to ``ell`` or to the first length with none, past which there are none
    (``_arcs``); ``fwd[d]`` is how many more darts, at most ``ell - 1``, a
    walk can take after dart ``d``; walking back from ``d`` reaches
    ``fwd[twin[d]]``.
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
            break
    return totals, fwd


def _arcs(totals, L):
    """The number of ``L``-arcs in the ``totals`` of ``_walks``."""
    return totals[L] if L < len(totals) else 0


def has_arc(G, ell):
    """True when ``G`` has an ``ell``-arc."""
    return _arcs(_walks(G, ell)[0], ell) > 0


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
    ``rev[k]`` extends; other levels have ``rank`` ``None``.

    What is derived from a level and the levels below it is made on its first
    read and then kept on the level, to be read but never changed: ``canon``
    (``_canonical``), ``ids`` (``_link_ids``), ``windows`` (``_window_ids``,
    kept on the upper of its two levels), ``middles`` (``_middle_ids``) and
    ``paths`` (``_paths``)."""

    __slots__ = ("parent", "last", "suffix", "rev", "kids", "back", "rank",
                 "canon", "ids", "windows", "middles", "paths")

    def __init__(self, parent, last, suffix, rev, kids, back, rank=None):
        self.parent, self.last, self.suffix, self.rev = parent, last, suffix, rev
        self.kids, self.back, self.rank = kids, back, rank
        self.canon = self.ids = self.windows = self.middles = self.paths = None

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
    """Mask of the arcs of a level that are the canonical orientation of their
    link, as ``bytes``; kept on the level."""
    if level.canon is None:
        level.canon = bytes(map(le, range(len(level.rev)), level.rev))
    return level.canon


def _link_ids(level):
    """Link index of every arc of a level, as ``array('i')``: canonical arcs
    numbered in order, and each other arc takes the index of its reverse;
    kept on the level."""
    if level.ids is None:
        ids, n = array("i"), 0
        for k, r in enumerate(level.rev):
            if k <= r:
                ids.append(n)
                n += 1
            else:
                ids.append(ids[r])
        level.ids = ids
    return level.ids


def _paths(G, levels, L):
    """Mask of the arcs of level ``L`` that are paths (no vertex twice), as
    ``bytes``; kept on the level.  An arc is a path when its parent and its
    suffix are paths and its first vertex, the last of its reverse, is not
    its last.  A path of length ``L`` has ``L + 1`` distinct vertices, so
    from ``L = n`` on, and above a level with no path, no arc is a path."""
    lv = levels[L]
    if lv.paths is None:
        if L == 0:
            lv.paths = bytes(_all(G.n))
        elif L >= G.n or 1 not in _paths(G, levels, L - 1):
            lv.paths = bytes(len(lv.last))
        else:
            below, head = _paths(G, levels, L - 1), G.darts().head
            firsts = map(head.__getitem__, map(lv.last.__getitem__, lv.rev))
            ends_differ = map(ne, firsts, map(head.__getitem__, lv.last))
            lv.paths = bytes(map(and_, map(and_, map(below.__getitem__, lv.parent),
                                           map(below.__getitem__, lv.suffix)), ends_differ))
    return lv.paths


def _units_at(G, levels, L, k):
    """The unit tuple of arc ``k`` of level ``L``: the last dart of the arc
    and of each of its prefixes, after the vertex it starts at."""
    steps, darts = G.darts().steps, []
    for lv in levels[L:0:-1]:
        darts.append(steps[lv.last[k]])
        k = lv.parent[k]
    return (G.vertices[k], *chain.from_iterable(reversed(darts)))


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


def _keep_for_links(levels):
    """Drop from kernel levels that one link graph alone holds every table
    but those its ``Link``s are made from: ``parent`` and ``last``
    (``_unit_tuples``), and the canonical masks made so far."""
    for lv in levels:
        lv.suffix = lv.rev = lv.kids = lv.back = lv.rank = None
        lv.ids = lv.windows = lv.middles = lv.paths = None


def _counted(G, caps):
    """``_walks`` up to the longest length of the ``{length: cap}`` ``caps``,
    once each cap is checked on the arc counts in increasing length, as an
    enumeration stopping one arc past the cap would."""
    totals, fwd = _walks(G, max(caps))
    for length in sorted(caps):
        _check_limit(_arcs(totals, length), caps[length])
    return totals, fwd


def _kernel(G, ell, caps):
    """The levels up to the longest length of ``caps``, once ``_counted``
    has checked them."""
    return _arc_levels(G, _counted(G, caps)[1], ell, max(caps))


def _recursion_kernel(G, ell, limit):
    """``(levels, top)`` for the recursive colouring of the ``ell``-link graph:
    ``top`` is ``ell``, or ``base = ell % 2`` when there is no ``ell``-arc,
    and ``levels`` hold every arc of length ``base`` to ``top + 1``.  The
    link limit is checked at each length from ``base`` to ``ell + 1`` in
    increasing order, as building the link graphs one by one would; past
    the last length with an arc there is nothing to check or build."""
    base = ell % 2
    totals, fwd = _walks(G, ell + 1)
    for L in range(base, min(ell + 2, len(totals))):
        _check_limit(totals[L], _link_cap(L, limit))
    top = ell if _arcs(totals, ell) else base
    # with ell = base no level at or above the base is pruned
    return _arc_levels(G, fwd, base, top + 1), top


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


def _walk_arcs(G, ell, fwd):
    """The ``ell``-arcs of ``G``, ``ell >= 1``, as unit tuples in
    ``enumerate_arcs`` order, one at a time: a depth-first walk with an
    explicit stack, so its depth is not bounded by the recursion limit.  It
    steps only onto darts from which ``fwd``, the reach table of
    ``_walks(G, ell)`` or of a longer count, still reaches length ``ell``,
    so every partial arc it holds is the prefix of one it yields."""
    D = G.darts()
    start, head, twin, steps = D.start, D.head, D.twin, D.steps
    for v, lo, hi in zip(G.vertices, start, start[1:]):
        # reversed: the stack pops the least dart first
        stack = [((v,), d) for d in range(hi - 1, lo - 1, -1) if fwd[d] >= ell - 1]
        while stack:
            units, d = stack.pop()
            units += steps[d]
            left = ell - len(units) // 2
            if not left:
                yield units
                continue
            h, back = head[d], twin[d]
            stack += [(units, s) for s in range(start[h + 1] - 1, start[h] - 1, -1)
                      if s != back and fwd[s] >= left - 1]


def enumerate_links(G, ell, limit=None):
    """All ``ell``-links in canonical order: one per arc and its reverse.
    Past the last length with an arc there are none, and no level is built."""
    totals, fwd = _counted(G, {ell: _link_cap(ell, limit)})
    if ell == 0:
        return [Link((v,)) for v in G.vertices]
    if not _arcs(totals, ell):
        return []
    levels = _arc_levels(G, fwd, ell, ell)
    canon = _canonical(levels[ell])
    return [Link(u) for u in _unit_tuples(G, levels, {ell: canon})[ell]]


def link_count(G, ell, limit=None):
    """The number of ``ell``-links, counted without enumerating them; over
    ``limit`` it raises what ``enumerate_links`` raises."""
    arcs = _arcs(_walks(G, ell)[0], ell)
    _check_limit(arcs, _link_cap(ell, limit))
    return arcs if ell == 0 else arcs // 2


def _window_ids(levels, ell):
    """The windows of the ``(ell + 1)``-links as two ``array('i')`` tables,
    read off kernel levels that hold every ``ell``- and ``(ell + 1)``-arc:
    per ``(ell + 1)``-link in canonical order, the link indices of its
    kernel parent and suffix.  Kept on level ``ell + 1``."""
    top = levels[ell + 1]
    if top.windows is None:
        link_of, canon = _link_ids(levels[ell]), _canonical(top)
        top.windows = tuple(array("i", map(link_of.__getitem__, compress(table, canon)))
                            for table in (top.parent, top.suffix))
    return top.windows


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


def _middle_ids(levels, ell):
    """Per ``ell``-link, in canonical order, the link index of its middle
    segment of length ``ell - 2``, as ``array('i')``; kept on level ``ell``."""
    lv = levels[ell]
    if lv.middles is None:
        canon = compress(range(len(lv.rev)), _canonical(lv))
        below = _link_ids(levels[ell - 2])
        lv.middles = array("i", map(below.__getitem__, _middle_arcs(levels, ell, 1, canon)))
    return lv.middles


def _link_middles(G, levels, ell):
    """Per ``ell``-link, in canonical order, its middle unit: a vertex for even
    ``ell`` and an edge id for odd ``ell``, read off its middle arc of length
    0 or 1 (``_middle_arcs``)."""
    lv = levels[ell]
    mids = _middle_arcs(levels, ell, ell // 2, compress(range(len(lv.rev)), _canonical(lv)))
    if ell % 2 == 0:
        return list(map(G.vertices.__getitem__, mids))
    steps, last = G.darts().steps, levels[1].last
    return [steps[last[a]][0] for a in mids]


def _inside(G, levels, ell, hub):
    """Mask of the ``ell``-arcs all of whose edges (at length 0, whose vertex)
    are in the subgraph ``hub``: an arc is inside when its parent is and
    its last dart is a dart of a hub edge."""
    if ell == 0:
        return bytes(map(hub.has_vertex, G.vertices))
    in_hub = bytes(hub.has_edge(eid) for eid, _ in G.darts().steps)
    inside = _all(G.n)
    for lv in levels[1 : ell + 1]:
        inside = bytes(map(and_, map(inside.__getitem__, lv.parent),
                           map(in_hub.__getitem__, lv.last)))
    return inside


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


def _windows(walk, ell):
    """The ``ell``-windows of the walk with unit tuple ``walk``, from its
    start on, each as the canonical unit tuple of its link."""
    out = []
    for k in range(0, len(walk) - 2 * ell, 2):
        w = walk[k : k + 2 * ell + 1]
        out.append(min(w, w[::-1]))
    return out


def _cycle_links(closed, ell):
    """The ``ell``-links, ``ell >= 1``, of the cycle that the closed walk
    ``closed`` (a unit tuple) goes round once, as canonical unit tuples: the
    windows of the walk, in the order a walk over the cycle's own link graph
    visits them, from the least link on through its lesser neighbour.
    Windows at consecutive starts are joined by the one-longer window, so
    that graph is a cycle through them in start order (for a digon, two
    links joined twice)."""
    c = len(closed) // 2
    walk = closed + closed[1:] * (ell // c + 1)
    links = _windows(walk[: 2 * (c + ell) - 1], ell)
    s = links.index(min(links))
    step = 1 if links[(s + 1) % c] < links[s - 1] else -1
    return [links[(s + step * k) % c] for k in range(c)]


def shunt_trace(base, ell):
    """Slide an ``ell``-window along ``base``; one step per unit shift."""
    if ell > base.length:
        raise WindowTooLong(f"window {ell} exceeds arc length {base.length}")
    if ell < 0:
        raise InvalidParameter(f"window length must be >= 0, got {ell}")
    images, steps = (tuple(map(Link, _windows(base.units, w))) for w in (ell, ell + 1))
    return ShuntTrace(base, ell, images, steps)


def one_step_shunts(G, link):
    """Every ``(Q, R)`` with ``Q`` a one-longer link having ``link`` as a window.

    This is exactly the labelled edge neighbourhood of ``link`` in the link
    graph; entries are sorted and pairwise distinct in ``Q``.
    """
    return [(Link(q), Link(r)) for q, r in _shunt_steps(G, link.units)]


def _shunt_steps(G, units):
    """``one_step_shunts`` of the link with canonical units ``units`` as
    sorted pairs of canonical unit tuples ``(Q, R)``: each orientation of the
    link (one for a vertex) extended by one dart at its head, not back along
    its last edge, and that extension without its first dart."""
    res = []
    ends = ((units, None),) if len(units) == 1 else ((units, units[-2]), (units[::-1], units[1]))
    for arc, head_edge in ends:
        for eid, w in G.incident(arc[-1]):
            if eid != head_edge:
                q = arc + (eid, w)
                r = q[2:]
                res.append((min(q, q[::-1]), min(r, r[::-1])))
    res.sort()
    return res


def can_shunt(G, L, R, middle_filter=None):
    """Breadth-first search (``_bfs_path``) from ``L`` to ``R`` over one-step shunts.

    Returns ``(ok, witness)`` where the witness lists the step links.  When
    ``middle_filter`` is given, intermediate images are restricted to links
    whose middle unit satisfies it.
    """
    if L.length != R.length:
        raise LengthMismatch(f"lengths {L.length} != {R.length}")
    if middle_filter is not None and not (middle_filter(L) and middle_filter(R)):
        return False, None

    def steps(cur):
        return (step for step in one_step_shunts(G, cur)
                if middle_filter is None or middle_filter(step[1]))

    units = _bfs_path((L,), R, steps)
    return (False, None) if units is None else (True, list(units[1::2]))


def middle_units(G, ell, limit=None):
    """The set of middle units over all ``ell``-links, read off the reach
    table: an edge whose darts can each walk ``h`` darts on for
    ``ell = 2h + 1``, a vertex with two darts out that can each walk
    ``h - 1`` darts on for ``ell = 2h``."""
    return _middle_units(G, ell, _walks(G, ell), limit)


def _middle_units(G, ell, counts, limit):
    """``middle_units`` read off ``counts``, the ``(totals, fwd)`` of
    ``_walks(G, L)`` for some ``L >= ell``: past ``ell - 1`` darts the reach
    table decides no middle unit.  It raises what ``middle_units`` raises."""
    totals, fwd = counts
    _check_limit(_arcs(totals, ell), _link_cap(ell, limit))
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
    return _hub_graph(G, ell, middle_units(G, ell, limit))


def _hub_graph(G, ell, units):
    """``hub_subgraph`` on the middle units ``units``: ``G`` itself when they
    are all of ``G``, which at odd ``ell`` also needs ``G`` to have no
    isolated vertex, as ``edge_subgraph`` keeps only endpoints."""
    if ell % 2 == 0:
        return G if len(units) == G.n else G.induced_subgraph(units)
    if len(units) == G.m and G.min_degree() > 0:
        return G
    return G.edge_subgraph(units)
