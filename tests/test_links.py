from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkgraphs import construction, links
from linkgraphs.construction import link_graph
from linkgraphs.errors import (
    BacktrackEdge,
    EndpointMismatch,
    InvalidParameter,
    LengthMismatch,
    LimitExceeded,
    WindowTooLong,
)
from linkgraphs.harness import default_corpus
from linkgraphs.links import (
    Arc,
    Link,
    can_shunt,
    canonicalize,
    conjunction,
    enumerate_arcs,
    enumerate_links,
    hub_subgraph,
    is_cycle,
    is_path,
    link_count,
    middle_units,
    one_step_shunts,
    shunt_trace,
    validate_arc,
)
from linkgraphs.multigraph import (
    Multigraph,
    complete,
    complete_bipartite,
    cycle,
    dipole,
    parallel_bridge,
    path,
    petersen,
)

from strategies import multigraphs


class TestEnumeration:
    def test_dipole_one_arcs(self):
        assert len(enumerate_arcs(dipole(3), 1)) == 6

    def test_complete4_two_arcs(self):
        assert len(enumerate_arcs(complete(4), 2)) == 24

    def test_triangle_three_arcs(self):
        assert len(enumerate_arcs(cycle(3), 3)) == 6

    def test_zero_arcs_are_vertices(self):
        assert [a.units for a in enumerate_arcs(path(2), 0)] == [("v0",), ("v1",), ("v2",)]

    def test_link_counts(self):
        assert len(enumerate_links(complete_bipartite(3, 3), 1)) == 9
        assert len(enumerate_links(petersen(), 2)) == 30
        assert len(enumerate_links(path(3), 3)) == 1

    def test_regular_count_formula(self):
        # count of links one longer equals m(r-1)^ell for r-regular graphs
        for G, r in ((complete(4), 3), (petersen(), 3), (cycle(5), 2)):
            for ell in range(4):
                assert len(enumerate_links(G, ell + 1)) == G.m * (r - 1) ** ell

    def test_bipartite_count_formula(self):
        for n, m in ((2, 3), (3, 3), (2, 4)):
            G = complete_bipartite(n, m)
            for ell in (1, 3):
                want = n * m * ((n - 1) * (m - 1)) ** ((ell - 1) // 2)
                assert len(enumerate_links(G, ell)) == want
            for ell in (2, 4):
                want = (n * m * (n + m - 2) * ((n - 1) * (m - 1)) ** (ell // 2 - 1)) // 2
                assert len(enumerate_links(G, ell)) == want

    def test_limit_exceeded(self):
        with pytest.raises(LimitExceeded):
            enumerate_links(petersen(), 4, limit=10)

    def test_a_length_past_the_last_arc_has_no_link_and_builds_no_level(self, monkeypatch):
        # a single edge has no 2-arc, so it has no link of length 2 or more
        monkeypatch.setattr(links, "_arc_levels", None)
        monkeypatch.setattr(construction, "_arc_levels", None)
        G, ell, start = path(1), 10**12, time.perf_counter()
        assert link_count(G, ell) == 0
        assert enumerate_links(G, ell) == []
        H = link_graph(G, ell)
        assert (H.ell, H.n, H.m, H.vertices, H.edges) == (ell, 0, 0, (), ())
        assert time.perf_counter() - start < 1

    def test_deterministic_sorted_order(self):
        links = enumerate_links(complete(4), 2)
        assert links == sorted(links)

    @given(multigraphs(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_arcs_are_twice_links(self, G, ell):
        assert len(enumerate_arcs(G, ell)) == 2 * len(enumerate_links(G, ell))

    @given(multigraphs(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_reversal_involution(self, G, ell):
        for arc in enumerate_arcs(G, ell):
            assert canonicalize(arc) == canonicalize(arc.reverse())
            assert validate_arc(G, arc)


class TestPredicates:
    def test_two_cycle_on_parallel_edges(self):
        link = Link.from_units(("u0", "e1", "u1", "e2", "u0"))
        assert is_cycle(link) and not is_path(link)

    def test_bridge_two_cycle(self):
        link = Link.from_units(("v1", "e0", "v0", "e1", "v1"))
        assert is_cycle(link)

    def test_one_links_are_paths(self):
        for link in enumerate_links(complete(4), 1):
            assert is_path(link) and not is_cycle(link)

    def test_middle_units(self):
        assert Link.from_units(("v0",)).middle_unit() == "v0"
        assert Link.from_units(("u0", "f0", "v0", "e0", "v1")).middle_unit() == "v0"
        three = Link.from_units(("v0", "e1", "v1", "e2", "v2", "e3", "v3"))
        assert three.middle_unit() == "e2"

    def test_middle_segment_is_reversal_stable(self):
        for link in enumerate_links(petersen(), 4):
            seg = link.middle_segment(2)
            rev = Link.from_arc(link.as_arc().reverse())
            assert rev.middle_segment(2) == seg

    @pytest.mark.parametrize("k", [-1, -2, -4, 4])
    def test_middle_segment_of_a_bad_length_raises(self, k):
        link = Link(("a", "e", "b", "f", "c"))
        with pytest.raises(InvalidParameter, match=f"no middle segment of length {k} in length 2"):
            link.middle_segment(k)


class TestConjunction:
    def test_identity_with_zero_arc(self):
        a = Arc(("v0", "e1", "v1"))
        assert conjunction(Arc(("v0",)), a) == a

    def test_example_composition(self):
        left = Arc(("u0", "f0", "v0"))
        right = Arc(("v0", "e0", "v1"))
        assert conjunction(left, right).units == ("u0", "f0", "v0", "e0", "v1")

    def test_backtrack_rejected(self):
        a = Arc(("u0", "e1", "u1"))
        with pytest.raises(BacktrackEdge):
            conjunction(a, a.reverse())

    def test_endpoint_mismatch(self):
        with pytest.raises(EndpointMismatch):
            conjunction(Arc(("u0", "e1", "u1")), Arc(("x", "e2", "y")))


class TestShunting:
    def test_trace_windows(self):
        base = Arc(("u0", "f0", "v0", "e0", "v1", "f1", "u1"))
        trace = shunt_trace(base, 2)
        assert trace.images == (
            Link.from_units(("u0", "f0", "v0", "e0", "v1")),
            Link.from_units(("v0", "e0", "v1", "f1", "u1")),
        )
        assert len(trace.steps) == 1

    def test_trace_full_window(self):
        base = Arc(("u0", "e1", "u1"))
        trace = shunt_trace(base, 1)
        assert len(trace.images) == 1 and not trace.steps

    def test_trace_zero_window(self):
        base = Arc(("u0", "e1", "u1"))
        trace = shunt_trace(base, 0)
        assert [l.units for l in trace.images] == [("u0",), ("u1",)]

    def test_window_too_long(self):
        with pytest.raises(WindowTooLong):
            shunt_trace(Arc(("v0",)), 1)

    def test_negative_window_rejected(self):
        with pytest.raises(InvalidParameter):
            shunt_trace(Arc(("u0", "e1", "u1")), -1)

    def test_one_step_counts(self):
        D = dipole(3)
        link = Link.from_units(("u0", "e1", "u1"))
        steps = one_step_shunts(D, link)
        assert len(steps) == 4
        partners = {r for _, r in steps}
        assert partners == {
            Link.from_units(("u0", "e2", "u1")),
            Link.from_units(("u0", "e3", "u1")),
        }

    def test_one_step_of_a_vertex_lists_incident_edges(self):
        G = parallel_bridge()
        steps = one_step_shunts(G, Link.from_units(("v0",)))
        assert [(q.units[1], r.units[0]) for q, r in steps] == [
            ("f0", "u0"),
            ("e0", "v1"),
            ("e1", "v1"),
        ]

    def test_one_step_of_a_vertex_is_each_edge_to_a_neighbour(self):
        for inst in default_corpus():
            G = inst.graph
            for v in G.vertices:
                want = sorted((Link.from_units((v, eid, w)), Link((w,)))
                              for eid, a, b in G.edges() if v in (a, b)
                              for w in [b if v == a else a])
                assert one_step_shunts(G, Link((v,))) == want, inst.name

    def test_one_step_middle_of_path(self):
        G = path(3)
        mid = Link.from_units(("v1", "e2", "v2"))
        assert len(one_step_shunts(G, mid)) == 2

    def test_one_step_regular(self):
        P = petersen()
        for link in enumerate_links(P, 2)[:5]:
            assert len(one_step_shunts(P, link)) == 4

    def test_steps_match_trace_of_extension(self):
        G = parallel_bridge()
        for link in enumerate_links(G, 2):
            for q, r in one_step_shunts(G, link):
                arc = q.as_arc()
                windows = {
                    Link.from_arc(arc.window(0, 2)),
                    Link.from_arc(arc.window(1, 3)),
                }
                assert windows == {link, r}

    def test_can_shunt_bridge_example(self):
        G = parallel_bridge()
        L = Link.from_units(("u0", "f0", "v0", "e0", "v1"))
        R = Link.from_units(("v1", "e0", "v0", "e1", "v1"))
        ok, witness = can_shunt(G, L, R)
        assert ok
        # the witness replays: consecutive windows of each step meet the chain
        current = L
        for q in witness:
            arc = q.as_arc()
            w0 = Link.from_arc(arc.window(0, 2))
            w1 = Link.from_arc(arc.window(1, 3))
            assert current in (w0, w1)
            current = w1 if current == w0 else w0
        assert current == R

    def test_can_shunt_reflexive(self):
        G = complete(3)
        L = enumerate_links(G, 2)[0]
        ok, witness = can_shunt(G, L, L)
        assert ok and witness == []

    def test_can_shunt_across_components_fails(self):
        G = Multigraph([], [("e1", "a", "b"), ("e2", "c", "d")])
        ok, witness = can_shunt(
            G, Link.from_units(("a", "e1", "b")), Link.from_units(("c", "e2", "d"))
        )
        assert not ok and witness is None

    def test_can_shunt_length_mismatch(self):
        G = complete(3)
        with pytest.raises(LengthMismatch):
            can_shunt(G, Link.from_units(("v0",)), enumerate_links(G, 1)[0])

    @given(multigraphs(), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_window_distinctness(self, G, ell):
        # both windows of a longer link always differ
        for q in enumerate_links(G, ell + 1):
            arc = q.as_arc()
            assert Link.from_arc(arc.window(0, ell)) != Link.from_arc(arc.window(1, ell + 1))


class TestHub:
    def test_hub_equals_graph_for_short_windows(self):
        for G in (complete(4), petersen(), parallel_bridge()):
            for ell in (0, 1):
                hub = hub_subgraph(G, ell)
                assert sorted(hub.vertices) == sorted(G.vertices)
                assert sorted(hub.edge_ids) == sorted(G.edge_ids)

    def test_path_middle_edge(self):
        hub = hub_subgraph(path(3), 3)
        assert hub.n == 2 and hub.m == 1 and hub.has_edge("e2")

    def test_star_hub_is_its_centre(self, star3):
        assert middle_units(star3, 2) == {"c"}
        hub = hub_subgraph(star3, 2)
        assert hub.vertices == ("c",) and hub.m == 0

    def test_pair_multiplicity_at_most_two(self):
        G = parallel_bridge()
        for ell in (1, 2, 3):
            for link in enumerate_links(G, ell):
                seen = {}
                for q, r in one_step_shunts(G, link):
                    seen.setdefault(r, set()).add(q)
                assert all(len(qs) <= 2 for qs in seen.values())
