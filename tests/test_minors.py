from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_minors
from linkgraphs import links, minors
from linkgraphs.construction import link_graph
from linkgraphs.errors import (
    BranchSetLacksLink,
    LinkGraphError,
    NoCycleInY,
    PreconditionViolated,
    WitnessInvalid,
)
from linkgraphs.minors import (
    CutInstance,
    MinorWitness,
    _complete_edges,
    _model_of_order,
    bipartite_clique_minor,
    complete_minor_from_cut,
    complete_minor_with_cycle,
    hadwiger_lower_bound,
    hadwiger_model,
    hadwiger_number,
    lift_minor,
    verify_minor,
)
from linkgraphs.harness import default_corpus
from linkgraphs.links import Link, _arcs, _walks, enumerate_arcs, hub_subgraph, shunt_trace
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

from conftest import run_optimized
from strategies import multigraphs


def triangle_grid():
    """Four triangles pairwise joined by single edges; every vertex degree 3."""
    verts, edges = [], []
    eid = 0
    for t in range(4):
        a, b, c = f"t{t}a", f"t{t}b", f"t{t}c"
        verts += [a, b, c]
        for u, v in ((a, b), (b, c), (a, c)):
            eid += 1
            edges.append((f"x{eid:02d}", u, v))
    for u, v in (("t0a", "t1a"), ("t0b", "t2a"), ("t0c", "t3a"),
                 ("t1b", "t2b"), ("t1c", "t3b"), ("t2c", "t3c")):
        eid += 1
        edges.append((f"x{eid:02d}", u, v))
    return Multigraph(verts, edges)


class TestVerify:
    def test_adjacent_singletons(self):
        H = link_graph(complete(3), 0)
        w = MinorWitness(2, _complete_edges(2), [frozenset({0}), frozenset({1})],
                         {(0, 1): (0, 1)}, H)
        assert verify_minor(H, w).ok

    def test_overlap_detected(self):
        H = link_graph(complete(3), 0)
        w = MinorWitness(2, _complete_edges(2), [frozenset({0, 1}), frozenset({1})],
                         {(0, 1): (0, 1)}, H)
        res = verify_minor(H, w)
        assert not res.ok and "overlap" in res.reason

    def test_disconnected_branch_set_detected(self):
        H = link_graph(path(3), 0)
        w = MinorWitness(2, _complete_edges(2), [frozenset({0, 3}), frozenset({1})],
                         {(0, 1): (0, 1)}, H)
        assert not verify_minor(H, w).ok

    def test_missing_connector_detected(self):
        H = link_graph(complete(3), 0)
        w = MinorWitness(2, _complete_edges(2), [frozenset({0}), frozenset({1})], {}, H)
        assert not verify_minor(H, w).ok

    def test_interior_through_branch_set_detected(self):
        H = link_graph(path(2), 0)  # path v0 - v1 - v2
        w = MinorWitness(
            2, _complete_edges(2),
            [frozenset({0}), frozenset({1, 2})],
            {(0, 1): (0, 1, 2)},
            H,
        )
        assert not verify_minor(H, w).ok

    def test_malformed_target_edges_are_rejected(self):
        # a target edge (i, j) names branch sets 0 <= i < j < target_size: a
        # negative end would read the last set, and one past them would raise
        sets = [frozenset({0}), frozenset({1})]
        H = link_graph(path(3), 1)  # edge links 0 - 1 - 2
        wrapped = MinorWitness(2, frozenset({(-1, 0), (0, 1)}), sets,
                               {(-1, 0): (1, 0), (0, 1): (0, 1)}, H)
        K = link_graph(complete(4), 1)
        beyond = MinorWitness(2, frozenset({(0, 5)}), sets, {(0, 5): (0, 1)}, K)
        for host, w in ((H, wrapped), (K, beyond)):
            res = verify_minor(host, w)
            assert not res.ok and "target edge" in res.reason


class TestOracle:
    def test_complete(self):
        assert hadwiger_number(complete(5)) == 5

    def test_long_cycle(self):
        assert hadwiger_number(cycle(7)) == 3

    def test_petersen(self):
        assert hadwiger_number(petersen()) == 5

    def test_octahedron(self):
        assert hadwiger_number(link_graph(complete(4), 1).to_multigraph()) == 4

    def test_bipartite(self):
        assert hadwiger_number(complete_bipartite(3, 3)) == 4

    def test_forest_and_multiedges(self):
        assert hadwiger_number(path(4)) == 2
        assert hadwiger_number(dipole(4)) == 2

    def test_model_is_a_valid_witness(self):
        for G in (petersen(), complete_bipartite(3, 3), wheel(5)):
            eta, model = hadwiger_model(G)
            idx = {v: i for i, v in enumerate(G.vertices)}
            sets = [frozenset(idx[v] for v in bs) for bs in model]
            connectors = {}
            for i in range(eta):
                for j in range(i + 1, eta):
                    found = None
                    for eid, u, v in G.edges():
                        iu, iv = idx[u], idx[v]
                        if iu in sets[i] and iv in sets[j]:
                            found = (iu, iv)
                            break
                        if iv in sets[i] and iu in sets[j]:
                            found = (iv, iu)
                            break
                    connectors[(i, j)] = found
            w = MinorWitness(eta, _complete_edges(eta), sets, connectors, G)
            assert verify_minor(G, w).ok


class TestBipartiteClique:
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_witness_verifies(self, d):
        w = bipartite_clique_minor(d)
        assert w.target_size == d and verify_minor(w.host, w).ok


class TestCutConstructions:
    def test_wheel_hub_window_one(self):
        W = wheel(5)
        inst = CutInstance(W, frozenset({"h"}))
        w = complete_minor_from_cut(W, 1, inst)
        assert w.target_size == 5
        assert verify_minor(w.host, w).ok

    def test_pair_cut_gives_an_edge(self):
        G = cycle(6)
        inst = CutInstance(G, frozenset({"v0"}))
        w = complete_minor_from_cut(G, 2, inst)
        assert w.target_size == 2 and verify_minor(w.host, w).ok

    def test_star_centre_rejected(self, star3):
        inst = CutInstance(star3, frozenset({"c"}))
        with pytest.raises(PreconditionViolated):
            complete_minor_from_cut(star3, 1, inst)

    def test_cycle_variant_on_complete(self):
        K5 = complete(5)
        inst = CutInstance(K5, frozenset({"v0"}))
        w = complete_minor_with_cycle(K5, 2, inst)
        assert w.target_size == 5 and verify_minor(w.host, w).ok

    def test_cycle_variant_needs_a_cycle(self):
        G = path(4)  # removing an endpoint leaves a tree
        inst = CutInstance(G, frozenset({"v0"}))
        with pytest.raises(NoCycleInY):
            complete_minor_with_cycle(G, 1, inst)

    def test_single_cut_edge_gives_k2(self):
        # one edge into a triangle: t = 1, witness K_2 through the cycle part
        G = Multigraph([], [("e1", "x", "a"), ("e2", "a", "b"), ("e3", "b", "c"),
                            ("e4", "c", "a")])
        inst = CutInstance(G, frozenset({"x"}))
        w = complete_minor_with_cycle(G, 1, inst)
        assert w.target_size == 2 and verify_minor(w.host, w).ok

    def test_wheel_hub_cycle_variant_beats_cut(self):
        W = wheel(5)
        inst = CutInstance(W, frozenset({"h"}))
        for ell in (1, 2, 3):
            w = complete_minor_with_cycle(W, ell, inst)
            assert w.target_size == 6 and verify_minor(w.host, w).ok

    def test_parallel_cut_edges(self):
        # all cut edges parallel: every threading cycle is a two-cycle
        D = dipole(3)
        for ell in (1, 2, 3):
            inst = CutInstance(D, frozenset({"u0"}))
            w = complete_minor_from_cut(D, ell, inst)
            assert w.target_size == 3 and verify_minor(w.host, w).ok


class TestLift:
    def test_identity_at_window_zero(self):
        K4 = complete(4)
        w = lift_minor(K4, 0, [frozenset({v}) for v in K4.vertices])
        assert w.target_size == 4 and verify_minor(w.host, w).ok

    def test_triangle_grid_even_window(self):
        G = triangle_grid()
        sets = [frozenset({f"t{t}a", f"t{t}b", f"t{t}c"}) for t in range(4)]
        w = lift_minor(G, 2, sets)
        assert w.target_size == 4 and verify_minor(w.host, w).ok

    def test_triangle_grid_odd_window(self):
        G = triangle_grid()
        sets = [frozenset({f"t{t}a", f"t{t}b", f"t{t}c"}) for t in range(4)]
        w = lift_minor(G, 3, sets)
        assert w.target_size == 4 and verify_minor(w.host, w).ok
        # odd windows connect through a two-step path centred on the crossing edge
        assert any(len(p) == 3 for p in w.connectors.values())

    def test_singleton_branch_set_lacks_link(self):
        K4 = complete(4)
        sets = [frozenset({"v0"}), frozenset({"v1"}), frozenset({"v2", "v3"})]
        with pytest.raises(BranchSetLacksLink):
            lift_minor(K4, 2, sets)

    def test_lift_enumerates_no_links(self, monkeypatch):
        # the lift reads the links of each branch set off the link graph
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate_links called")

        monkeypatch.setattr(links, "enumerate_links", refuse)
        assert not hasattr(minors, "enumerate_links")
        grid = [frozenset({f"t{t}a", f"t{t}b", f"t{t}c"}) for t in range(4)]
        K4 = complete(4)
        for G, ell, sets in ((K4, 0, [frozenset({v}) for v in K4.vertices]),
                             (triangle_grid(), 2, grid), (triangle_grid(), 3, grid)):
            w = lift_minor(G, ell, sets)
            assert w.target_size == 4 and verify_minor(w.host, w).ok
        with pytest.raises(BranchSetLacksLink, match="branch set 0 holds no link of length 2"):
            lift_minor(K4, 2, [frozenset({"v0"}), frozenset({"v1", "v2", "v3"})])


def _lift_outcome(lift, G, ell, sets, H, hub):
    """The witness JSON of a lift, or the type and text of what it raised."""
    try:
        return lift(G, ell, sets, H=H, hub=hub).to_json()
    except LinkGraphError as exc:
        return f"{type(exc).__name__}: {exc}"


def _lifts_agree(G, ell, sets):
    H, hub = link_graph(G, ell), hub_subgraph(G, ell)
    got = _lift_outcome(lift_minor, G, ell, sets, H, hub)
    assert got == _lift_outcome(reference_minors.lift_minor, G, ell, sets, H, hub)
    return got


def _grown_sets(hub, data):
    """Connected branch sets of ``hub``: drawn seeds, each grown by drawn
    neighbours, one at a time, until a drawn stop or none is left."""
    seeds = data.draw(st.lists(st.sampled_from(hub.vertices), min_size=1, max_size=3,
                               unique=True))
    owner = {v: k for k, v in enumerate(seeds)}
    while data.draw(st.integers(0, 7)):
        reach = sorted({(w, owner[v]) for v in owner for _, w in hub.incident(v)
                        if w not in owner})
        if not reach:
            break
        w, k = data.draw(st.sampled_from(reach))
        owner[w] = k
    return [frozenset(v for v in owner if owner[v] == k) for k in range(len(seeds))]


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=8, max_m=16), st.data())
def test_lift_matches_its_reference_on_connected_branch_sets(G, data):
    totals = _walks(G, 5)[0]
    for ell in range(5):
        if _arcs(totals, ell + 1) > 3000:
            break
        hub = hub_subgraph(G, ell)
        if hub.n:
            _lifts_agree(G, ell, _grown_sets(hub, data))


def test_lift_matches_its_reference_on_the_triangle_grid():
    # each triangle holds links of every length, so every lift gives a witness
    sets = [frozenset({f"t{t}a", f"t{t}b", f"t{t}c"}) for t in range(4)]
    for ell in range(5):
        assert _lifts_agree(triangle_grid(), ell, sets).startswith("{")


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=7, max_m=10))
def test_hub_is_the_graph_itself_exactly_when_it_spans_it(G):
    # with and without the degree-one peel that the model route applies first
    core = minors._peel_degree_one(G)
    for graph in (G, core) if core.n else (G,):
        for ell in range(5):
            hub = hub_subgraph(graph, ell)
            same = (sorted(hub.vertices) == sorted(graph.vertices)
                    and sorted(hub.edge_ids) == sorted(graph.edge_ids))
            assert (hub is graph) == same


class TestLowerBound:
    def test_complete_graph(self):
        res = hadwiger_lower_bound(complete(4), 1)
        assert res.bound >= 4 and verify_minor(res.witness.host, res.witness).ok
        assert hadwiger_number(link_graph(complete(4), 1).to_multigraph()) >= res.bound

    def test_dipole_degeneracy_route(self):
        res = hadwiger_lower_bound(dipole(3), 1)
        assert res.bound >= 3

    def test_petersen_window_two(self):
        res = hadwiger_lower_bound(petersen(), 2)
        assert res.bound >= 5
        assert verify_minor(res.witness.host, res.witness).ok

    def test_floor_over_corpus_sample(self):
        for G in (complete(4), complete_bipartite(3, 3), cycle(6), wheel(5), dipole(4)):
            for ell in (1, 2):
                res = hadwiger_lower_bound(G, ell)
                floor = max(hadwiger_number(G), G.degeneracy())
                assert res.bound >= floor, (G, ell, res.bound, floor)

    def test_cut_candidates_stop_before_building_a_witness_that_cannot_win(self, monkeypatch):
        built = []
        for name in ("complete_minor_with_cycle", "complete_minor_from_cut"):
            real = getattr(minors, name)

            def counting(*args, real=real, **kwargs):
                built.append(real.__name__)
                return real(*args, **kwargs)

            monkeypatch.setattr(minors, name, counting)
        # at ell = 1 every candidate is one vertex with a cut of 3 edges, so
        # after the K_5 of the hub lift no candidate can win
        res = hadwiger_lower_bound(petersen(), 1)
        assert (res.bound, res.route) == (5, "hub-lift")
        assert res.notes == ["cut-candidates: none can beat K_5"]
        assert built == []

    def test_cut_candidates_note_a_search_that_builds_nothing(self):
        res = hadwiger_lower_bound(dipole(3), 1)
        assert (res.bound, res.route) == (3, "degeneracy")
        assert res.notes == ["cut-candidates: no witness"]

    def test_witness_json_schema(self):
        res = hadwiger_lower_bound(wheel(5), 1)
        data = json.loads(res.witness.to_json())
        assert data["target"].startswith("K_")
        assert isinstance(data["branch_sets"], list)
        assert all("-" in k for k in data["connectors"])

    def test_witness_json_on_a_list_host_labels_vertices_by_index(self):
        # a triangle as neighbour sets, with a K_3 on vertices 2, 0, 1
        host = [{1, 2}, {0, 2}, {0, 1}]
        sets = [frozenset({2}), frozenset({0}), frozenset({1})]
        w = MinorWitness(3, _complete_edges(3), sets,
                         {(0, 1): (2, 0), (0, 2): (2, 1), (1, 2): (0, 1)}, host, "list")
        assert verify_minor(host, w).ok
        assert json.loads(w.to_json()) == {
            "target": "K_3", "branch_sets": [["2"], ["0"], ["1"]],
            "connectors": {"0-1": ["2", "0"], "0-2": ["2", "1"], "1-2": ["0", "1"]}}


OVERLAPPING_WITNESS_SCRIPT = """
import sys
from linkgraphs import minors
from linkgraphs.errors import WitnessInvalid
from linkgraphs.multigraph import complete

if sys.flags.optimize < 1:
    sys.exit("expected python -O")


def overlapping(G, ell, H):
    return minors.MinorWitness(2, minors._complete_edges(2),
                               [frozenset({0, 1}), frozenset({1})], {(0, 1): (0, 1)},
                               H, "degeneracy")


minors._degeneracy_route = overlapping
try:
    minors.hadwiger_lower_bound(complete(4), 2)
except WitnessInvalid as exc:
    print(exc)
else:
    sys.exit("an invalid witness was accepted")
"""


REJECTED_WITNESS_SCRIPT = """
import sys
from linkgraphs import minors
from linkgraphs.errors import WitnessInvalid
from linkgraphs.multigraph import complete, wheel

if sys.flags.optimize < 1:
    sys.exit("expected python -O")

minors.verify_minor = lambda host, witness: minors.VerifyResult(False, "rejected")
W = wheel(5)
hub = minors.CutInstance(W, frozenset({"h"}))
K4 = complete(4)
for build in (
    lambda: minors.bipartite_clique_minor(3),
    lambda: minors.complete_minor_from_cut(W, 1, hub),
    lambda: minors.complete_minor_with_cycle(W, 1, hub),
    lambda: minors.lift_minor(K4, 0, [frozenset({v}) for v in K4.vertices]),
    lambda: minors.hadwiger_lower_bound(W, 1),
    lambda: minors.hadwiger_lower_bound(W, 2),  # raised inside the model route
):
    try:
        build()
    except WitnessInvalid as exc:
        print(exc)
    else:
        sys.exit("a rejected witness was returned")
"""


class TestWitnessGate:
    def test_invalid_witness_raises_under_optimize(self):
        proc = run_optimized(OVERLAPPING_WITNESS_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("degeneracy witness failed verification")

    def test_constructors_raise_on_a_rejected_witness_under_optimize(self):
        proc = run_optimized(REJECTED_WITNESS_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "bipartite construction failed verification: rejected",
            "cut construction failed verification: rejected",
            "cycle construction failed verification: rejected",
            "hub lifting failed verification: rejected",
            "degeneracy construction failed verification: rejected",
            "cycle construction failed verification: rejected",
        ]

    def test_model_search_without_a_model_raises(self):
        with pytest.raises(WitnessInvalid):
            _model_of_order(cycle(4), 4)

    def test_model_route_solves_eta_once(self, monkeypatch):
        calls = []
        real = minors.hadwiger_number

        def counting(G, cap=minors.DEFAULT_HADWIGER_CAP):
            calls.append(G.n)
            return real(G, cap)

        monkeypatch.setattr(minors, "hadwiger_number", counting)
        res = hadwiger_lower_bound(petersen(), 1)
        assert res.route == "hub-lift" and res.bound == 5
        assert calls == [10]

    def test_edge_witness_is_made_once(self, monkeypatch):
        # eta(path(4)) = 2: the model route's K_2 is the edge witness
        calls = []
        real = minors._LinkHost.first_edge

        def counting(self):
            calls.append(self.ell)
            return real(self)

        monkeypatch.setattr(minors._LinkHost, "first_edge", counting)
        res = hadwiger_lower_bound(path(4), 1)
        assert (res.bound, res.route, res.notes) == (
            2, "edge", ["degeneracy: no witness", "cut-candidates: none can beat K_2"])
        assert calls == [1]

    def test_lift_raises_when_a_branch_set_splits(self, monkeypatch):
        monkeypatch.setattr(minors, "reachable", lambda adj, starts, allowed=None: set(starts))
        sets = [frozenset({f"t{t}a", f"t{t}b", f"t{t}c"}) for t in range(4)]
        with pytest.raises(WitnessInvalid, match="fell into two components"):
            lift_minor(triangle_grid(), 2, sets)

    def test_no_assert_statement_in_the_package(self):
        """Every check in the package raises, so ``python -O`` keeps it."""
        src = Path(__file__).resolve().parents[1] / "src" / "linkgraphs"
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
        assert found == []


# -- the link host: the public bound finds and checks its witnesses on one-step
# shunts, and agrees with the bound on a built link graph --------------------

LIMIT = 20_000


def _outcome(run):
    """What a lower-bound call gives: the bound, route, notes and witness
    JSON, or the type and text of what it raises."""
    try:
        res = run()
    except LinkGraphError as exc:
        return type(exc), str(exc)
    return res.bound, res.route, res.notes, res.witness.to_json()


@pytest.mark.parametrize("inst", default_corpus(), ids=lambda inst: inst.name)
def test_link_host_bound_matches_the_built_graph(inst):
    G = inst.graph
    for ell in range(1, 6):
        def built():
            return hadwiger_lower_bound(G, ell, link_graph(G, ell, LIMIT), limit=LIMIT)

        assert _outcome(lambda: hadwiger_lower_bound(G, ell, limit=LIMIT)) == _outcome(built), ell


def _mapped(w, host, to):
    """``w`` on ``host``, each vertex ``v`` of ``w.host`` replaced by ``to(v)``."""
    return MinorWitness(w.target_size, w.target_edges,
                        [frozenset(map(to, bs)) for bs in w.branch_sets],
                        {e: tuple(map(to, path)) for e, path in w.connectors.items()},
                        host, w.route)


def _corruptions(H, w):
    """Witnesses on the link graph ``H`` that ``verify_minor`` rejects: ``w``
    with a branch set split by a far vertex, ``w`` with a connector over a
    non-edge, and a path minor whose two connectors share their interior."""
    adj = H.adjacency()
    out = []
    (i, j), path = min(w.connectors.items())
    used = set().union(*w.branch_sets, *w.connectors.values())
    far = [v for v in range(H.n)
           if v not in used and not any(v in adj[x] for x in w.branch_sets[i])]
    if far:
        sets = list(w.branch_sets)
        sets[i] = sets[i] | {far[0]}
        out.append(MinorWitness(w.target_size, w.target_edges, sets, w.connectors, H))
        out.append(MinorWitness(w.target_size, w.target_edges, w.branch_sets,
                                {**w.connectors, (i, j): (path[0], far[0], path[-1])}, H))
    hub = next((z for z in range(H.n) if len(adj[z]) >= 3), None)
    if hub is not None:
        a, b, c = sorted(adj[hub])[:3]
        out.append(MinorWitness(3, frozenset({(0, 1), (0, 2)}),
                                [frozenset({a}), frozenset({b}), frozenset({c})],
                                {(0, 1): (a, hub, b), (0, 2): (a, hub, c)}, H))
    return out


def _verdict(host, w):
    check = verify_minor(host, w)
    return check.ok, check.reason


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=9))
def test_link_host_verdicts_match_the_built_graph(G):
    totals = _walks(G, 7)[0]
    for ell in (L for L in range(1, 7) if 0 < _arcs(totals, L + 1) <= 3000):
        H = link_graph(G, ell)
        built = hadwiger_lower_bound(G, ell, H).witness
        found = hadwiger_lower_bound(G, ell)
        assert _outcome(lambda: found) == _outcome(lambda: hadwiger_lower_bound(G, ell, H))
        witnesses = [built, _mapped(found.witness, H,
                                    lambda v: H.index[found.witness.host.vertices[v]])]
        bad = _corruptions(H, built)
        assert not any(verify_minor(H, w).ok for w in bad)
        host = minors._LinkHost(G, ell)
        for w in witnesses + bad:
            on_host = _mapped(w, host, lambda v: host._lookup(H.vertices[v].units))
            assert _verdict(host, on_host) == _verdict(H, w)
            assert on_host.to_json() == w.to_json()


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=5, max_m=7))
def test_windows_are_the_links_of_a_shunt_trace(G):
    totals = _walks(G, 4)[0]
    for length in (L for L in range(1, 5) if _arcs(totals, L) <= 400):
        for arc in enumerate_arcs(G, length):
            for ell in range(length + 1):
                images = [Link.from_arc(arc.window(i, i + ell)) for i in range(length - ell + 1)]
                steps = [Link.from_arc(arc.window(i - 1, i + ell)) for i in range(1, length - ell + 1)]
                assert minors._windows(arc.units, ell) == [link.units for link in images]
                trace = shunt_trace(arc, ell)
                assert trace.images == tuple(images) and trace.steps == tuple(steps)


@pytest.mark.parametrize("c", range(2, 9))
def test_cycle_links_follow_a_walk_over_the_cycle_link_graph(c):
    # from the least link through its lesser neighbour, then on to the one
    # neighbour not yet visited, on the built link graph of the cycle; any
    # closed walk round the cycle, from any start, either way, gives that order
    G = cycle(c)
    closed = G.shortest_cycle()
    walks = [w[2 * p :] + w[1 : 2 * p + 1] for w in (closed, closed[::-1]) for p in range(c)]
    for ell in range(1, 7):
        H = link_graph(G, ell)
        adj, link = H.adjacency(), H.vertices.__getitem__
        order = [min(range(H.n), key=link)]
        while len(order) < H.n:
            order.append(min(adj[order[-1]] - set(order), key=link))
        expected = [link(i).units for i in order]
        assert len(expected) == c
        for walk in walks:
            assert minors._cycle_links(walk, ell) == expected
