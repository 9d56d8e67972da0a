"""Reference recursive colouring: the link graph of every length of the
recursion built on its own with ``link_graph``, and each middle segment found
through ``Link.middle_segment`` and the index of the graph two shorter.

The package reads all those link graphs off one build of the arc kernel; the
tests check that both give the same graph, colouring and errors.
"""

from __future__ import annotations

from linkgraphs.coloring import DEFAULT_CHROMATIC_CAP, _base_coloring, _lifted
from linkgraphs.construction import link_graph
from linkgraphs.errors import InvalidParameter


def recursive_chromatic_bound(G, ell, cap=DEFAULT_CHROMATIC_CAP, limit=None):
    """Colour the base link graph, then lift two lengths at a time."""
    if ell < 0:
        raise InvalidParameter(f"ell must be >= 0, got {ell}")
    rec = _base_coloring(G, link_graph(G, ell % 2, limit), cap)
    for length in range(ell % 2 + 2, ell + 1, 2):
        rec = _lifted(G, rec, link_graph(G, length, limit))
    return rec
