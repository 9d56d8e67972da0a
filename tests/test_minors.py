from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from linkgraphs import minors
from linkgraphs.construction import link_graph
from linkgraphs.errors import (
    BranchSetLacksLink,
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
