"""Reference readers of the structural claims, on ``Link`` objects.

These are the readers the verify suite used while it read its structural
claims off the ``Link``s of each link graph: Obs3.3's window test, Obs3.4's
doubled-edge patterns, the path-graph comparison of PathGirth, Lemma 3.7's
hub parts and the middle-unit map of Lemma 3.5 and Corollary 3.6.  The
package reads the same answers off kernel ids and makes no ``Link`` for a
passing record; the tests check that both agree.
"""

from __future__ import annotations

from linkgraphs.construction import _path_graph_of
from linkgraphs.harness import _alternating_link, _parallel_patterns
from linkgraphs.links import Link


def looplessness(H):
    """Obs3.3 on the link graph ``H``: ``(status, detail)``."""
    for i, j, lab in H.edges:
        if i == j:
            return "fail", f"loop at {H.vertices[i]}"
        # the two windows are one link when one equals the other or its reverse
        w0, w1 = lab.units[:-2], lab.units[2:]
        if w0 == w1 or w0 == w1[::-1]:
            return "fail", f"windows of {lab} coincide"
    return "pass", f"{H.m} edges loopless"


def parallel_pairs(G):
    """The pairs of parallel edges of ``G`` as ``(u, v, e, f)``, as Obs3.4
    lists them."""
    byp = {}
    for eid, u, v in G.edges():
        byp.setdefault((u, v) if u <= v else (v, u), []).append(eid)
    return [(u, v, eids[a], eids[b]) for (u, v), eids in sorted(byp.items())
            for a in range(len(eids)) for b in range(a + 1, len(eids))]


def multiplicity(H, pairs):
    """Obs3.4 on the link graph ``H`` with the parallel pairs ``pairs`` of its
    base graph: ``(status, detail)``."""
    ell = H.ell
    groups = H.edge_groups()
    doubled = {pair: labs for pair, labs in groups.items() if len(labs) > 1}
    patterns = _parallel_patterns(pairs, ell)
    for pair, labs in doubled.items():
        if len(labs) > 2:
            return "fail", f"multiplicity {len(labs)} at {pair}"
        windows = frozenset((H.vertices[pair[0]].units, H.vertices[pair[1]].units))
        if frozenset(lab.units for lab in labs) not in patterns.get(windows, ()):
            return "fail", f"doubled edge at {pair} without a parallel-pair pattern"
    # converse: every parallel pair produces its doubled edge
    for u, v, e, f in pairs:
        i = H.index[Link(_alternating_link(u, e, v, f, ell))]
        j = H.index[Link(_alternating_link(v, f, u, e, ell))]
        if len(groups.get((i, j) if i < j else (j, i), ())) != 2:
            return "fail", f"parallel pair {e},{f} not doubled at length {ell}"
    return "pass", f"{len(doubled)} doubled pairs, all patterned"


def path_girth(H, girth):
    """PathGirth on the link graph ``H`` of a base graph of girth ``girth``:
    ``(status, detail)``."""
    ell = H.ell
    P = _path_graph_of(H)
    if girth > max(ell, 2):
        if not P.same_labeled_graph(H):
            return "fail", "path graph differs despite the girth bound"
        return "pass", f"equal to the link graph (girth {girth})"
    # induced subgraph of the simplification on the path vertices
    S = H.simplify()
    s_units = [v.units for v in S.vertices]
    p_units = [v.units for v in P.vertices]
    s_pairs = {(s_units[i], s_units[j]) for i, j, _ in S.edges}
    p_pairs = {(p_units[i], p_units[j]) for i, j, _ in P.edges}
    pv = set(p_units)
    induced = {(a, b) for a, b in s_pairs if a in pv and b in pv}
    if ell >= 2 and p_pairs != induced:
        return "fail", "path graph is not the induced restriction"
    return "pass", "induced restriction verified"


def hub_parts(H, hub):
    """Per connected component of ``hub``: the indices of the links of ``H``
    inside it, and the set of indices of the links whose middle unit is in
    it."""
    comps = hub.components()
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    edge_comp = {eid: comp_of[u] for eid, u, _ in hub.edges()}
    inside = [[] for _ in comps]
    middle = [set() for _ in inside]
    ell = H.ell
    mid_comp = comp_of if ell % 2 == 0 else edge_comp
    for i, link in enumerate(H.vertices):
        u = link.units
        k = mid_comp.get(u[ell])
        if k is None:
            continue
        middle[k].add(i)
        # a link with every edge in the hub has its middle unit there too
        if ell == 0 or all(map(edge_comp.__contains__, u[1::2])):
            inside[k].append(i)
    return list(zip(inside, middle))


def middle_comps(H):
    """Per middle unit of the links of ``H``, the set of the numbers of the
    components of ``H`` that hold a link with that middle unit."""
    comp_of = {i: k for k, comp in enumerate(H.components()) for i in comp}
    by_mid = {}
    for i, link in enumerate(H.vertices):
        by_mid.setdefault(link.middle_unit(), set()).add(comp_of[i])
    return by_mid
