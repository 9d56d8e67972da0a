"""The Hadwiger decision search, the model search and the clique-minor lower
bound against the reference searches of ``reference_minors``."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_minors as ref
from linkgraphs import minors
from linkgraphs.construction import link_graph
from linkgraphs.errors import NoEdge, OracleTooLarge
from linkgraphs.minors import (
    DEFAULT_HADWIGER_CAP,
    _contracts_to,
    _hadwiger,
    _model_of_order,
    _rows,
    hadwiger_lower_bound,
    hadwiger_model,
    hadwiger_number,
)
from linkgraphs.multigraph import (
    Multigraph,
    complete,
    complete_bipartite,
    cycle,
    dipole,
    path,
    petersen,
    wheel,
)

from conftest import make_multigraph
from strategies import multigraphs

TWO_TRIANGLES = make_multigraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
K4_AND_PATH = make_multigraph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6)])
TWO_DIGONS = make_multigraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])


def _isolated(G):
    return sum(1 for v in G.vertices if G.degree(v) == 0)


# The reference tries every order of vertices that refinement cannot tell
# apart: seven isolated vertices cost it 0.2 s, nine cost it 16 s.
@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=9, max_m=18).filter(lambda G: _isolated(G) <= 6))
@example(make_multigraph(6, []))
@example(TWO_TRIANGLES)
@example(K4_AND_PATH)
def test_decision_search_matches_reference(G):
    assert hadwiger_number(G) == ref.hadwiger_number(G)


@pytest.mark.parametrize("G, eta", [
    (Multigraph([], []), 0),
    (Multigraph(["a"], []), 1),
    (make_multigraph(3, []), 1),
    (make_multigraph(5, [(0, 1), (0, 1), (2, 3)]), 2),
    (TWO_TRIANGLES, 3),
    (K4_AND_PATH, 4),
    (cycle(13), 3),
])
def test_small_and_disconnected_graphs(G, eta):
    assert hadwiger_number(G, cap=None) == eta


@pytest.mark.parametrize("G, eta", [
    pytest.param(link_graph(wheel(6), 1).to_multigraph(), 7, id="wheel(6) at ell=1"),
    pytest.param(link_graph(complete_bipartite(3, 4), 1).to_multigraph(), 6, id="K_{3,4} at ell=1"),
    pytest.param(link_graph(complete(4), 2).to_multigraph(), 6, id="K4 at ell=2"),
    pytest.param(link_graph(dipole(3), 3).to_multigraph(), 5, id="dipole(3) at ell=3"),
    pytest.param(petersen(), 5, id="Petersen"),
])
def test_baseline_graphs(G, eta):
    assert hadwiger_number(G) == eta


@st.composite
def connected_rows(draw, max_n=10):
    """Neighbour bitmasks of a connected simple graph: a random tree on
    0..n-1 (vertex j hangs from an earlier vertex) plus the chords a random
    bitmask over the pairs picks."""
    n = draw(st.integers(1, max_n))
    parents = [draw(st.integers(0, j - 1)) for j in range(1, n)]
    pairs = [(i, j) for j in range(n) for i in range(j)]
    chords = draw(st.integers(0, (1 << len(pairs)) - 1))
    rows = [0] * n
    for k, (i, j) in enumerate(pairs):
        if chords >> k & 1 or parents[j - 1] == i:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def _link_rows(G):
    """Neighbour bitmasks of the 1-link graph of ``G``."""
    adj = link_graph(G, 1).adjacency()
    return _rows(adj, range(len(adj)))[0]


# Branching only on the edges of a vertex of degree below t - 1 must decide
# every target as the search that tries every edge does.  In the first
# example, vertex 1 has degree 4 and is a branch set alone in every covering
# K_5 model, so branching on its edges at t - 1 = 4 too would miss them all.
@settings(max_examples=400, deadline=None)
@given(connected_rows())
@example((238, 77, 75, 55, 232, 153, 151, 113))
@example(_link_rows(complete_bipartite(3, 4)))
@example(_link_rows(wheel(6)))
def test_contraction_decisions_match_the_all_edges_search(rows):
    m = sum(map(int.bit_count, rows)) // 2
    for t in range(1, len(rows) + 2):
        assert _contracts_to(rows, m, t, set()) == ref._contracts_to(rows, m, t, set()), t


# Nodes the decision search visits inside ``_hadwiger`` at ell = 1; the search
# that tries every edge visits 2,840, 640 and 61,355.
@pytest.mark.parametrize("G, cap, eta, most", [
    pytest.param(complete_bipartite(3, 4), DEFAULT_HADWIGER_CAP, 6, 200, id="K_{3,4}"),
    pytest.param(wheel(6), DEFAULT_HADWIGER_CAP, 7, 30, id="wheel(6)"),
    pytest.param(petersen(), 16, 6, 400, id="Petersen"),
])
def test_decision_search_node_counts(monkeypatch, G, cap, eta, most):
    calls = []

    def counted(*args):
        calls.append(1)
        return _contracts_to(*args)

    monkeypatch.setattr(minors, "_contracts_to", counted)
    assert _hadwiger(link_graph(G, 1).adjacency(), cap) == eta
    assert len(calls) <= most


def test_cap_is_checked_on_the_simple_graph():
    with pytest.raises(OracleTooLarge):
        hadwiger_number(cycle(13))
    assert hadwiger_number(dipole(5), cap=2) == 2


# The pruned bitmask search must meet the same first model as the reference,
# which expands every contraction; the prune is sound only on connected
# graphs, and K4_AND_PATH has too few edges for a covering K_4 model.
@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=9, max_m=18).filter(lambda G: _isolated(G) <= 6))
@example(TWO_TRIANGLES)
@example(K4_AND_PATH)
@example(wheel(6))
@example(link_graph(complete(4), 1).to_multigraph())
def test_model_search_matches_reference(G):
    eta = hadwiger_number(G, cap=None)
    assert _model_of_order(G, eta) == ref._model_of_order(G, eta)


# The oracle reads a link graph's own adjacency; the reference reads the
# graph as a string-named multigraph, whose vertices sort by name.  The
# reference takes up to 30 s on a dense link graph of 9 vertices, so the
# drawn graphs stop at 7.
@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.integers(0, 3))
@example(TWO_DIGONS, 2)
@example(complete(4), 1)
@example(dipole(3), 2)
def test_link_graph_oracles_match_reference(G, ell):
    H = link_graph(G, ell)
    if H.n > 7:
        return
    M = H.to_multigraph()
    eta = _hadwiger(H.adjacency(), DEFAULT_HADWIGER_CAP)
    assert eta == ref.hadwiger_number(M)
    assert hadwiger_model(M) == (eta, ref._model_of_order(M, eta))


# Two digons at a vertex: a cut candidate whose size equals the best witness
# before it (K_2) still wins with the K_3 of its cycle construction.
@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.integers(1, 3))
@example(TWO_DIGONS, 1)
@example(TWO_DIGONS, 3)
@example(path(4), 2)
@example(petersen(), 3)
def test_lower_bound_matches_reference(G, ell):
    H = link_graph(G, ell)
    if H.m == 0:
        with pytest.raises(NoEdge):
            hadwiger_lower_bound(G, ell, H=H)
        return
    got, want = hadwiger_lower_bound(G, ell, H=H), ref.hadwiger_lower_bound(G, ell, H=H)
    assert (got.bound, got.route) == (want.bound, want.route)
    assert got.witness.to_json() == want.witness.to_json()
