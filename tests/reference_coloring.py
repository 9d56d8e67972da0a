"""Reference recursive colouring: the link graph of every length of the
recursion built on its own with ``link_graph``, each middle segment found
through ``Link.middle_segment`` and the index of the graph two shorter, and
each lift made by the public ``lift_coloring``, which checks every colouring
it reads and writes.

The package reads all those link graphs off one build of the arc kernel; the
tests check that both give the same graph, colouring and errors.
"""

from __future__ import annotations

from linkgraphs.coloring import (
    DEFAULT_CHROMATIC_CAP,
    Coloring,
    RecursiveColoring,
    _base_coloring,
    exact_edge_chromatic,
    lift_coloring,
)
from linkgraphs.construction import link_graph
from linkgraphs.errors import InvalidParameter


def recursive_chromatic_bound(G, ell, cap=DEFAULT_CHROMATIC_CAP, limit=None):
    """Colour the base link graph, then lift two lengths at a time."""
    if ell < 0:
        raise InvalidParameter(f"ell must be >= 0, got {ell}")
    rec = _base_coloring(G, link_graph(G, ell % 2, limit), cap,
                         lambda: exact_edge_chromatic(G, cap))
    for length in range(ell % 2 + 2, ell + 1, 2):
        H = link_graph(G, length, limit)
        col = Coloring({}, 0) if H.n == 0 else lift_coloring(
            G, length, rec.graph, rec.coloring, upper=H)
        rec = RecursiveColoring(length, H, col, rec.exact_base, rec.base_kind, rec.base_value)
    return rec
