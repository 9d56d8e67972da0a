"""Pinned outputs of the traversal-based constructions.

One lower-bound witness per minor route, the bipartite clique model, and the
shortest cycle of every default corpus graph.  A change to the shortest-path,
reachability or adjacency code must leave each of them byte-identical.
"""

from __future__ import annotations

import hashlib

import pytest

from linkgraphs import multigraph as mg
from linkgraphs.harness import default_corpus
from linkgraphs.minors import bipartite_clique_minor, hadwiger_lower_bound, shortest_cycle_arc


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


ROUTE_CASES = [
    ("edge", mg.path(3), 1,
     "d2b45c1c7a504343103665ecb4567d47588e437a8e5bbec1d3f8033f276f423b"),
    # bipartite pattern on an (ell-1)-arc of the degeneracy core
    ("degeneracy", mg.dipole(3), 2,
     "5ec98ed9b18f77fceb517fb5085079f23ba27d152d1c1181318be24d7b491a9b"),
    # star of edge links at a core vertex
    ("degeneracy", mg.dipole(4), 1,
     "7b355c1ab4aa4f8325fd42c61699294a5231b65c5976665c54dada1e66488f58"),
    ("cycle", mg.complete(3), 2,
     "129f62f5928483b59491b0ef21ee11de991b3b179b524034deb1f51114e29bc2"),
    ("cut", mg.complete_bipartite(2, 4), 1,
     "0e6ae4f0c2480594db5ba59cb5803633a7315bc9535fe1e4417b85d80c9b68e1"),
    ("cut+cycle", mg.complete(4), 2,
     "a2bcef8aa0235b652f7ec52d8cfda5a471b0be53ed69a0c6f2a9d13ce52dc018"),
    ("hub-lift", mg.petersen(), 1,
     "fc7944f2edc078a9b6931d7b6f347894a82cb5aa81b07a1dc685c4fe2f6dc66c"),
]


@pytest.mark.parametrize(
    "route,G,ell,digest", ROUTE_CASES,
    ids=[f"{route}-ell{ell}" for route, _, ell, _ in ROUTE_CASES],
)
def test_lower_bound_witness_is_pinned(route, G, ell, digest):
    res = hadwiger_lower_bound(G, ell)
    assert res.route == route
    assert _sha256(res.witness.to_json()) == digest


def test_bipartite_clique_model_is_pinned():
    digest = "983a56be0a7901c9f801d1cc9882ec38719921016851667beec194f4698ae157"
    assert _sha256(bipartite_clique_minor(5).to_json()) == digest


SHORTEST_CYCLES = {
    "dipole(2)": "u0 e2 u1 e1 u0",
    "dipole(3)": "u0 e2 u1 e1 u0",
    "dipole(4)": "u0 e2 u1 e1 u0",
    "dipole(5)": "u0 e2 u1 e1 u0",
    "complete(3)": "v0 e2 v2 e3 v1 e1 v0",
    "complete(4)": "v0 e2 v2 e4 v1 e1 v0",
    "complete(5)": "v0 e02 v2 e05 v1 e01 v0",
    "complete(6)": "v0 e02 v2 e06 v1 e01 v0",
    "bipartite(2,2)": "a0 e2 b1 e4 a1 e3 b0 e1 a0",
    "bipartite(2,3)": "a0 e2 b1 e5 a1 e4 b0 e1 a0",
    "bipartite(2,4)": "a0 e2 b1 e6 a1 e5 b0 e1 a0",
    "bipartite(3,3)": "a0 e2 b1 e5 a1 e4 b0 e1 a0",
    "bipartite(3,4)": "a0 e02 b1 e06 a1 e05 b0 e01 a0",
    "cycle(3)": "v0 e3 v2 e2 v1 e1 v0",
    "cycle(4)": "v0 e4 v3 e3 v2 e2 v1 e1 v0",
    "cycle(5)": "v0 e5 v4 e4 v3 e3 v2 e2 v1 e1 v0",
    "cycle(6)": "v0 e6 v5 e5 v4 e4 v3 e3 v2 e2 v1 e1 v0",
    "cycle(7)": "v0 e7 v6 e6 v5 e5 v4 e4 v3 e3 v2 e2 v1 e1 v0",
    "cycle(8)": "v0 e8 v7 e7 v6 e6 v5 e5 v4 e4 v3 e3 v2 e2 v1 e1 v0",
    "path(3)": None,
    "path(4)": None,
    "path(5)": None,
    "path(6)": None,
    "path(7)": None,
    "path(8)": None,
    "petersen": "i0 e02 i3 e04 i1 e05 i4 e07 i2 e01 i0",
    "wheel(5)": "h e02 r1 e06 r0 e01 h",
    "wheel(6)": "h e02 r1 e07 r0 e01 h",
    "parallel-bridge": "v0 e1 v1 e0 v0",
    "random1(seed=11400714819323198485)": "v3 e08 v2 e02 v3",
    "random2(seed=15111065706836454659)": "v4 e09 v1 e01 v4",
}


def test_corpus_shortest_cycles_are_pinned():
    got = {}
    for inst in default_corpus():
        cyc = shortest_cycle_arc(inst.graph)
        got[inst.name] = None if cyc is None else " ".join(cyc.units)
        assert inst.graph.girth() == (mg.INFINITE if cyc is None else cyc.length)
    assert got == SHORTEST_CYCLES
