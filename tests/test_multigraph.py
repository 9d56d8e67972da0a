from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_multigraph
from linkgraphs import canon, multigraph
from linkgraphs.construction import index_adjacency
from linkgraphs.errors import (
    InvalidParameter,
    LoopRejected,
    MalformedLine,
    UnknownVertex,
)
from linkgraphs.links import Arc, validate_arc
from strategies import multigraphs

from linkgraphs.multigraph import (
    Multigraph,
    complete,
    complete_bipartite,
    cycle,
    dipole,
    parallel_bridge,
    parse_edge_list,
    path,
    petersen,
    random_multigraph,
    wheel,
)

INF = math.inf


class TestParsing:
    def test_parallel_lines_make_a_dipole(self):
        G = parse_edge_list("a b\na b\n")
        assert G.n == 2 and G.m == 2
        assert canon.is_isomorphic(G, dipole(2))

    def test_loop_rejected(self):
        with pytest.raises(LoopRejected):
            parse_edge_list("a a\n")

    def test_malformed_line(self):
        with pytest.raises(MalformedLine):
            parse_edge_list("a b c\n")

    def test_bytes_that_are_not_utf8(self):
        with pytest.raises(MalformedLine, match="line 2: not UTF-8"):
            parse_edge_list(b"a b\n\xff c\n")

    def test_bridge_example(self):
        G = parse_edge_list("u0 v0\nv0 v1\nv0 v1\nv1 u1\n")
        assert G.n == 4 and G.m == 4
        assert G.multiplicity("v0", "v1") == 2
        assert canon.is_isomorphic(G, parallel_bridge())

    def test_isolated_vertex_and_comments(self):
        G = parse_edge_list("# a comment\nv lonely\na b\n")
        assert G.n == 3 and G.m == 1
        assert G.degree("lonely") == 0

    def test_vertex_named_v_round_trips(self):
        G = Multigraph(["v"], [("e1", "v", "x")])
        again = parse_edge_list(G.serialize())
        assert set(again.vertices) == {"v", "x"}
        assert again.m == 1

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_serialize_round_trip(self, G):
        again = parse_edge_list(G.serialize())
        assert again.vertices == G.vertices
        pairs = sorted(tuple(sorted(p)) for p in (G.endpoints(e) for e in G.edge_ids))
        pairs2 = sorted(
            tuple(sorted(p)) for p in (again.endpoints(e) for e in again.edge_ids)
        )
        assert pairs == pairs2


class TestGenerators:
    def test_dipole(self):
        G = dipole(3)
        assert G.n == 2 and G.m == 3
        assert G.degree("u0") == 3

    def test_dipole_needs_parallel_edges(self):
        with pytest.raises(InvalidParameter):
            dipole(0)

    def test_complete_one_vertex(self):
        G = complete(1)
        assert G.n == 1 and G.m == 0

    def test_complete_bipartite(self):
        G = complete_bipartite(2, 3)
        assert G.n == 5 and G.m == 6

    def test_cycle_two_is_parallel_pair(self):
        G = cycle(2)
        assert G.n == 2 and G.m == 2 and G.girth() == 2

    def test_cycle_rejects_loops(self):
        with pytest.raises(InvalidParameter):
            cycle(1)

    def test_petersen(self):
        G = petersen()
        assert G.n == 10 and G.m == 15
        assert G.min_degree() == G.max_degree() == 3
        assert G.girth() == 5

    def test_wheel(self):
        G = wheel(5)
        assert G.n == 6 and G.m == 10
        assert G.degree("h") == 5

    def test_random_is_seeded(self):
        a, b = random_multigraph(99), random_multigraph(99)
        assert a.vertices == b.vertices and a.edges() == b.edges()
        assert a.n <= 8 and a.m <= 14

    @pytest.mark.parametrize("kwargs, text", [
        ({"max_vertices": 3}, "random_multigraph needs max_vertices >= 4, got 3"),
        ({"max_edges": 3}, "random_multigraph needs max_edges >= n = 5, got 3"),
    ])
    def test_random_multigraph_parameters_are_checked(self, kwargs, text):
        # seed 1 draws n = 5 before it draws the edge count
        with pytest.raises(InvalidParameter) as exc:
            random_multigraph(1, **kwargs)
        assert str(exc.value) == text


class TestMetrics:
    def test_degrees(self):
        assert dipole(3).degree("u0") == 3
        assert complete(4).degree("v1") == 3
        assert parallel_bridge().degree("v0") == 3

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            complete(3).degree("nope")

    def test_degeneracy(self):
        assert complete(4).degeneracy() == 3
        assert dipole(3).degeneracy() == 3
        assert petersen().degeneracy() == 3
        assert path(5).degeneracy() == 1

    def test_degeneracy_of_cliques(self):
        for n in range(1, 9):
            assert complete(n).degeneracy() == n - 1

    def test_degeneracy_core(self):
        d, core = petersen().degeneracy(with_core=True)
        assert d == 3 and core.min_degree() >= 3

    def test_girth(self):
        assert dipole(2).girth() == 2
        assert petersen().girth() == 5
        assert path(4).girth() == INF
        assert cycle(5).girth() == 5

    def test_connectivity(self):
        C = cycle(5)
        assert C.is_connected() and C.is_biconnected() and C.diameter() == 2
        P = path(3)
        assert P.diameter() == 3 and not P.is_biconnected()
        B = parallel_bridge()
        assert B.is_connected() and not B.is_biconnected()
        assert B.articulation_points() == ["v0", "v1"]

    def test_two_vertex_biconnectivity_convention(self):
        assert dipole(1).is_biconnected()
        assert not Multigraph(["a", "b"]).is_biconnected()

    def test_components(self):
        G = Multigraph(["x"], [("e1", "a", "b")])
        assert G.components() == [["a", "b"], ["x"]]
        assert not G.is_connected()

    def test_components_are_kept_and_returned_as_fresh_lists(self, monkeypatch):
        G = Multigraph(["x"], [("e1", "a", "b")])
        starts = []
        real = multigraph.reachable
        monkeypatch.setattr(multigraph, "reachable",
                            lambda adj, s, allowed=None: starts.append(tuple(s)) or real(adj, s))
        G.components()[0].append("y")
        assert G.components() == [["a", "b"], ["x"]] and not G.is_connected()
        assert starts == [(0,), (2,)]

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_index_adjacency_matches_the_name_indexed_reference(self, G):
        adj = index_adjacency(G)
        assert adj == reference_multigraph.name_index_adjacency(G)
        assert index_adjacency(G) is adj and G.adjacency() is adj

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_components_match_the_bfs_reference(self, G):
        assert G.components() == reference_multigraph.bfs_components(G)
        assert G.is_connected() == (len(reference_multigraph.bfs_components(G)) <= 1)

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum(self, G):
        assert sum(G.degree(v) for v in G.vertices) == 2 * G.m

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_degeneracy_at_most_max_degree(self, G):
        assert G.degeneracy() <= G.max_degree()


class TestShortestWalks:
    @given(multigraphs(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_walk_length_is_the_distance(self, G, k):
        sources = G.vertices[:k]
        for v in G.vertices:
            walk = G.shortest_walk(sources, v)
            dist = min(G.distance(s, v) for s in sources)
            if dist == INF:
                assert walk is None
                continue
            arc = Arc(walk)
            assert validate_arc(G, arc)
            assert walk[0] in sources and walk[-1] == v
            assert arc.length == dist

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_shortest_cycle_has_girth_length(self, G):
        cyc = G.shortest_cycle()
        if G.m == G.n - len(G.components()):  # a forest
            assert cyc is None and G.girth() == INF
            return
        arc = Arc(cyc)
        assert validate_arc(G, arc)
        assert cyc[0] == cyc[-1]
        inner = arc.vertices()[:-1]
        assert len(set(inner)) == len(inner)
        assert arc.length == G.girth()

    def test_avoided_edge_is_never_used(self):
        assert dipole(1).shortest_walk(("u0",), "u1", avoid="e1") is None
        assert dipole(2).shortest_walk(("u0",), "u1", avoid="e1") == ("u0", "e2", "u1")


class TestSubgraphs:
    def test_induced_complete(self):
        G = complete(4)
        H = G.induced_subgraph(["v0", "v1", "v2"])
        assert canon.is_isomorphic(H, complete(3))

    def test_edge_subgraph_isolated_vertex(self):
        G = complete(3)
        H = G.edge_subgraph([], ["v0"])
        assert H.n == 1 and H.m == 0

    def test_induced_bridge_middle(self):
        G = parallel_bridge()
        H = G.induced_subgraph(["v0", "v1"])
        assert canon.is_isomorphic(H, dipole(2))

    def test_underlying_simple(self):
        S = parallel_bridge().underlying_simple()
        assert S.m == 3 and S.multiplicity("v0", "v1") == 1

    def test_dot_export(self):
        out = dipole(2).to_dot()
        assert out.startswith("graph") and '"u0" -- "u1"' in out
