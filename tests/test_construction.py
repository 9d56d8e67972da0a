from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import multigraphs

from linkgraphs import canon, construction
from linkgraphs.construction import (
    ChainDigraph,
    _is_complete_bipartite,
    arc_digraph,
    digraph_natural_iso_check,
    iterated_line_digraph,
    link_graph,
    link_graph_connected,
    natural_partition,
    partial_link_graph,
    path_graph,
    quotient,
    quotient_embedding_check,
    verify_almost_standard,
)
from linkgraphs.errors import NotALink, PartitionMismatch, WindowTooShort
from linkgraphs.links import Link, enumerate_links, hub_subgraph, is_path
from linkgraphs.multigraph import (
    Multigraph,
    complete,
    complete_bipartite,
    cycle,
    dipole,
    parallel_bridge,
    path,
    petersen,
    wheel,
)


class TestLinkGraph:
    def test_zero_window_reproduces_the_graph(self):
        G = parallel_bridge()
        H = link_graph(G, 0)
        assert [l.units for l in H.vertices] == [(v,) for v in G.vertices]
        assert canon.is_isomorphic(H.to_multigraph(), G)

    def test_dipole_window_one(self):
        H = link_graph(dipole(3), 1)
        assert H.n == 3 and H.m == 6
        assert all(H.multiplicity(i, j) == 2 for i in range(3) for j in range(i + 1, 3))

    def test_bridge_window_two(self):
        H = link_graph(parallel_bridge(), 2)
        assert H.n == 6 and H.m == 8

    def test_edge_count_identity(self):
        for G in (complete(4), petersen(), parallel_bridge(), dipole(4)):
            for ell in range(4):
                H = link_graph(G, ell)
                assert H.m == len(enumerate_links(G, ell + 1))

    def test_labels_are_distinct(self):
        H = link_graph(dipole(4), 2)
        labels = [lab for _, _, lab in H.edges]
        assert len(set(labels)) == len(labels)

    @given(multigraphs(), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_multiplicity_at_most_two(self, G, ell):
        H = link_graph(G, ell)
        assert all(len(labs) <= 2 for labs in H.edge_groups().values())

    def test_json_schema(self):
        H = link_graph(dipole(2), 1)
        data = json.loads(H.to_json())
        assert data["ell"] == 1
        assert data["vertices"] == ["[u0 e1 u1]", "[u0 e2 u1]"]
        assert all(len(e) == 3 for e in data["edges"])


class TestPartial:
    def test_full_sets_reproduce_link_graph(self):
        G = parallel_bridge()
        H = link_graph(G, 2)
        P = partial_link_graph(G, enumerate_links(G, 2), enumerate_links(G, 3))
        assert P.same_labeled_graph(H)

    def test_empty_sets(self):
        P = partial_link_graph(complete(3), [], [])
        assert P.n == 0 and P.m == 0

    def test_foreign_link_rejected(self):
        with pytest.raises(NotALink):
            partial_link_graph(
                complete(3), [Link.from_units(("x", "zz", "y"))], []
            )


class TestPathGraph:
    def test_bridge_has_four_two_paths(self):
        G = parallel_bridge()
        P = path_graph(G, 2)
        assert P.n == 4 and P.m == 2
        assert all(is_path(v) for v in P.vertices)

    def test_girth_condition_gives_equality(self):
        for G, ells in ((petersen(), range(1, 5)), (cycle(8), range(1, 6))):
            for ell in ells:
                assert path_graph(G, ell).same_labeled_graph(link_graph(G, ell))

    def test_triangle_line_graph(self):
        G = complete(3)
        assert path_graph(G, 1).same_labeled_graph(link_graph(G, 1))
        assert canon.is_isomorphic(path_graph(G, 1).to_multigraph(), complete(3))

    def test_induced_in_simplification(self):
        for G in (parallel_bridge(), dipole(3), complete(4)):
            for ell in (2, 3):
                P = path_graph(G, ell)
                S = link_graph(G, ell).simplify()
                pv = set(P.vertices)
                want = {
                    (S.vertices[i], S.vertices[j])
                    for i, j, _ in S.edges
                    if S.vertices[i] in pv and S.vertices[j] in pv
                }
                got = {(P.vertices[i], P.vertices[j]) for i, j, _ in P.edges}
                assert got == want


class TestArcDigraphs:
    def test_dipole_arc_digraph(self):
        A = arc_digraph(dipole(3), 1)
        assert A.n == 6 and len(A.arcs) == 12

    def test_cycles_become_two_directed_cycles(self):
        for n in (3, 4, 5, 6):
            for ell in (1, 2, 3):
                A = arc_digraph(cycle(n), ell)
                assert A.n == 2 * n and len(A.arcs) == 2 * n
                outdeg = {}
                indeg = {}
                for t, h, _ in A.arcs:
                    outdeg[t] = outdeg.get(t, 0) + 1
                    indeg[h] = indeg.get(h, 0) + 1
                assert all(v == 1 for v in outdeg.values())
                assert all(v == 1 for v in indeg.values())
                # weakly split in two: opposite orientations never meet
                seen = set()
                frontier = [0]
                nbrs = {}
                for t, h, _ in A.arcs:
                    nbrs.setdefault(t, set()).add(h)
                    nbrs.setdefault(h, set()).add(t)
                while frontier:
                    x = frontier.pop()
                    if x in seen:
                        continue
                    seen.add(x)
                    frontier.extend(nbrs[x])
                assert len(seen) == n

    def test_iterated_depth_one_matches(self):
        G = dipole(3)
        C = iterated_line_digraph(G, 1)
        A = arc_digraph(G, 1)
        assert len(C.vertices) == A.n and len(C.arcs) == len(A.arcs)

    def test_natural_iso(self):
        assert digraph_natural_iso_check(dipole(3), 2)
        assert digraph_natural_iso_check(petersen(), 2)
        assert digraph_natural_iso_check(cycle(3), 1)
        assert digraph_natural_iso_check(complete(4), 3)

    @pytest.mark.parametrize("corrupt", ["dropped arc", "swapped chains"])
    def test_natural_iso_rejects_a_corrupted_chain_digraph(self, corrupt, monkeypatch):
        G = dipole(3)
        C = iterated_line_digraph(G, 2)
        if corrupt == "dropped arc":
            bad = ChainDigraph(C.depth, C.vertices, C.arcs[1:])
        else:
            chains = list(C.vertices)
            chains[0], chains[1] = chains[1], chains[0]
            bad = ChainDigraph(C.depth, tuple(chains), C.arcs)
        monkeypatch.setattr(construction, "iterated_line_digraph", lambda G, ell, limit: bad)
        assert not digraph_natural_iso_check(G, 2)


class TestPartitions:
    def test_needs_window_at_least_two(self):
        with pytest.raises(WindowTooShort):
            natural_partition(link_graph(complete(3), 1))

    def test_four_cycle_parts(self):
        H = link_graph(cycle(4), 2)
        part = natural_partition(H)
        assert len(part.vertex_parts) == 4
        assert all(len(v) == 1 for v in part.vertex_parts.values())

    def test_star_center_part(self, star3):
        H = link_graph(star3, 2)
        part = natural_partition(H)
        key = Link.from_units(("c",))
        assert len(part.vertex_parts[key]) == 3

    def test_natural_partition_is_almost_standard(self):
        for G in (parallel_bridge(), complete(4), dipole(3), petersen()):
            for ell in (2, 3):
                H = link_graph(G, ell)
                check = verify_almost_standard(H, natural_partition(H))
                assert check.all_ok(), (G, ell, check.failures)

    def test_merged_part_breaks_independence(self):
        H = link_graph(complete(4), 2)
        part = natural_partition(H)
        keys = sorted(part.vertex_parts)
        merged = dict(part.vertex_parts)
        merged[keys[0]] = merged[keys[0]] | merged[keys[1]]
        del merged[keys[1]]
        bad = type(part)(part.ell, merged, part.edge_parts)
        check = verify_almost_standard(H, bad)
        assert not check.independent_parts

    def test_failures_name_the_part_keys_in_part_order(self):
        H = link_graph(dipole(3), 3)
        part = natural_partition(H)
        vkeys, ekeys = sorted(part.vertex_parts), sorted(part.edge_parts)
        vparts, eparts = dict(part.vertex_parts), dict(part.edge_parts)
        vparts[vkeys[0]] |= vparts.pop(vkeys[-1])
        eparts[ekeys[1]] |= eparts.pop(ekeys[0])
        check = verify_almost_standard(H, type(part)(3, vparts, eparts))
        assert check.failures == [
            ("a", "edge inside part [u0 e1 u1]"),
            ("b", "edge part [u1 e1 u0 e3 u1] touches 1 parts"),
            ("c", "edge part [u0 e1 u1 e3 u0] is not complete bipartite"),
        ] + [("e", "two vertices of [u0 e1 u1] meet both parts")] * 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
        lambda pair: pair[0] < pair[1]), max_size=10))
    def test_complete_bipartite_test_matches_every_two_sided_split(self, pairs):
        verts = sorted({v for pair in pairs for v in pair})
        want = False
        for mask in range(2 ** len(verts)):
            side = {v for k, v in enumerate(verts) if mask >> k & 1}
            across = [(i, j) for i in verts for j in verts if i < j and (i in side) != (j in side)]
            want = want or sorted(pairs) == across
        assert _is_complete_bipartite(pairs) == want

    def test_singleton_partition_on_triangle(self):
        H = link_graph(complete(3), 0)
        part = type(natural_partition(link_graph(complete(3), 2)))(
            0,
            {v: frozenset({i}) for i, v in enumerate(H.vertices)},
            {lab: frozenset({k}) for k, (_, _, lab) in enumerate(H.edges)},
        )
        check = verify_almost_standard(H, part)
        assert check.all_ok()

    def test_non_cover_raises(self):
        H = link_graph(complete(4), 2)
        part = natural_partition(H)
        broken = dict(part.vertex_parts)
        first = sorted(broken)[0]
        broken[first] = frozenset(set(broken[first]) - {min(broken[first])})
        with pytest.raises(PartitionMismatch):
            verify_almost_standard(H, type(part)(part.ell, broken, part.edge_parts))


class TestQuotient:
    def test_bridge_quotient_is_a_parallel_pair(self):
        H = link_graph(parallel_bridge(), 2)
        Q = quotient(H, natural_partition(H))
        assert canon.is_isomorphic(Q, dipole(2))

    def test_embedding_checks(self):
        for G in (parallel_bridge(), complete(4), dipole(3), cycle(5), petersen()):
            for ell in (2, 3, 4):
                assert quotient_embedding_check(G, ell), (G, ell)

    def test_window_two_quotient_lands_in_the_base(self):
        G = complete_bipartite(2, 3)
        H = link_graph(G, 2)
        Q = quotient(H, natural_partition(H))
        # parts are keyed by middle vertices; the quotient embeds into G
        assert Q.n <= G.n and Q.m <= G.m


class TestDotExport:
    def test_partition_clusters(self):
        H = link_graph(parallel_bridge(), 2)
        out = H.to_dot(partition=natural_partition(H))
        assert "subgraph cluster_0" in out and "subgraph cluster_1" in out

    def test_digraph_dot(self):
        out = arc_digraph(dipole(2), 1).to_dot()
        assert out.startswith("digraph") and "->" in out


class TestConnectivity:
    def test_short_windows_match_base_connectivity(self):
        for G in (complete(4), path(3), parallel_bridge()):
            for ell in (0, 1):
                assert link_graph_connected(G, ell) == G.is_connected()

    def test_path_window_two(self):
        assert link_graph_connected(path(4), 2)

    def test_two_disjoint_edges(self):
        G = Multigraph([], [("e1", "a", "b"), ("e2", "c", "d")])
        assert not link_graph_connected(G, 1)

    def test_star_window_two_disconnected(self, star3):
        assert not link_graph_connected(star3, 2)
        assert not link_graph(star3, 2).is_connected()

    def test_degenerate_hub_fallback(self):
        # a single long link, or a hub too small to host one
        assert link_graph_connected(path(3), 3)
        assert link_graph_connected(path(4), 3)

    def test_components_are_searched_once_per_graph(self, star3, monkeypatch):
        H = link_graph(star3, 2)
        starts = []
        real = construction.reachable

        def counting(adj, start, allowed=None):
            starts.append(tuple(start))
            return real(adj, start, allowed)

        monkeypatch.setattr(construction, "reachable", counting)
        comps = H.components()
        assert not H.is_connected() and H.components() is comps
        assert sorted(i for comp in comps for i in comp) == list(range(H.n))
        assert starts == [(comp[0],) for comp in comps]

    # a triangle with a pendant path of two edges
    LOLLIPOP = Multigraph([], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                               ("e4", "a", "d"), ("e5", "d", "e")])
    HUB_HOLDS_EVERY_EDGE = [(petersen(), 4), (complete(4), 3), (wheel(5), 2), (cycle(5), 6),
                            (dipole(3), 1), (LOLLIPOP, 0), (LOLLIPOP, 1)]
    HUB_MISSES_AN_EDGE = [(LOLLIPOP, 2), (LOLLIPOP, 3), (LOLLIPOP, 4), (path(5), 2),
                          (parallel_bridge(), 3), (Multigraph([], [("e1", "c", "a"),
                          ("e2", "c", "b"), ("e3", "c", "d")]), 2)]

    def test_shunt_search_runs_only_when_the_hub_misses_an_edge(self, monkeypatch):
        searched = []
        real = construction.shunt_reach

        def counting(G, ell, hub):
            searched.append((G, ell))
            return real(G, ell, hub)

        monkeypatch.setattr(construction, "shunt_reach", counting)
        answers = set()
        for G, ell in self.HUB_HOLDS_EVERY_EDGE + self.HUB_MISSES_AN_EDGE:
            hub = hub_subgraph(G, ell)
            assert hub.is_connected() and len(enumerate_links(G, ell)) > 1
            misses = (G, ell) in self.HUB_MISSES_AN_EDGE
            assert (hub.m < G.m) == misses
            bfs = link_graph(G, ell).is_connected()
            assert link_graph_connected(G, ell) == bfs
            assert searched.count((G, ell)) == misses
            answers.add((misses, bfs))
        assert answers == {(False, True), (True, True), (True, False)}

    @given(multigraphs(max_n=5, max_m=7), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_criterion_equals_bfs(self, G, ell):
        assert link_graph_connected(G, ell) == link_graph(G, ell).is_connected()
