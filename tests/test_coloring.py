from __future__ import annotations

import json
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_coloring
from conftest import run_optimized
from strategies import multigraphs, simple_adjacencies

from linkgraphs import cli, coloring, harness, links
from linkgraphs.coloring import (
    DEFAULT_CHROMATIC_CAP,
    Coloring,
    chromatic_upper_bounds,
    exact_chromatic,
    exact_edge_chromatic,
    greedy_coloring,
    is_proper,
    lift_coloring,
    recursive_chromatic_bound,
    reduce_coloring,
)
from linkgraphs.construction import LabeledGraph, index_adjacency, link_graph
from linkgraphs.errors import (
    InvalidParameter,
    LimitExceeded,
    OracleTooLarge,
    PartialColoring,
    PreconditionViolated,
    WitnessInvalid,
)
from linkgraphs.harness import Caps, CorpusInstance, random_recolour_instance, recolouring_battery
from linkgraphs.multigraph import (
    complete,
    complete_bipartite,
    cycle,
    dipole,
    parallel_bridge,
    path,
    petersen,
    wheel,
)


class TestProperness:
    def test_alternating_four_cycle(self):
        H = link_graph(cycle(4), 0)
        col = Coloring({0: 1, 1: 2, 2: 1, 3: 2}, 2)
        assert is_proper(H, col)

    def test_constant_colouring_fails(self):
        H = link_graph(complete(3), 0)
        assert not is_proper(H, Coloring({i: 1 for i in range(3)}, 1))

    def test_partial_raises(self):
        H = link_graph(complete(3), 0)
        with pytest.raises(PartialColoring):
            is_proper(H, Coloring({0: 1}, 1))

    @settings(max_examples=60, deadline=None)
    @given(multigraphs(max_n=5, max_m=8), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_edge_ends_answer_as_the_neighbour_sets(self, G, ell, rnd):
        # a LabeledGraph is read off its ends, a list of sets off the sets
        H = link_graph(G, ell, 10_000)
        for t in (1, 2, 3):
            col = Coloring({i: rnd.randint(1, t) for i in range(H.n)}, t)
            assert is_proper(H, col) == is_proper(index_adjacency(H), col)

    def test_a_loop_is_ignored(self):
        # as index_adjacency drops it
        H = LabeledGraph(0, ("a", "b"), ((0, 0, "x"), (0, 1, "y")))
        assert is_proper(H, Coloring({0: 1, 1: 2}, 2))
        assert not is_proper(H, Coloring({0: 1, 1: 1}, 1))


class TestExactOracles:
    def test_complete_graphs(self):
        for n in (2, 3, 5):
            chi, col = exact_chromatic(link_graph(complete(n), 0))
            assert chi == n

    def test_dipole_line_graph(self):
        chi, _ = exact_chromatic(link_graph(dipole(3), 1))
        assert chi == 3

    def test_golden_petersen_window_two(self):
        H = link_graph(petersen(), 2)
        chi, col = exact_chromatic(H)
        assert chi == 3 and is_proper(H, col)

    def test_oracle_cap(self):
        with pytest.raises(OracleTooLarge):
            exact_chromatic(link_graph(petersen(), 4), cap=64)

    @given(multigraphs(max_n=7, max_m=12))
    @settings(max_examples=60, deadline=None)
    def test_base_solve_of_a_graph_equals_that_of_its_zero_link_graph(self, G):
        # the run cache solves the base graph once for both
        assert exact_chromatic(G) == exact_chromatic(link_graph(G, 0))

    def test_witnesses_are_proper(self):
        for G in (petersen(), complete_bipartite(2, 4), wheel(5)):
            H = link_graph(G, 2)
            chi, col = exact_chromatic(H)
            assert is_proper(H, col) and col.used() <= chi

    def test_edge_chromatic(self):
        assert exact_edge_chromatic(dipole(3))[0] == 3
        assert exact_edge_chromatic(cycle(5))[0] == 3
        assert exact_edge_chromatic(complete(4))[0] == 3
        assert exact_edge_chromatic(petersen())[0] == 4

    @given(multigraphs(max_n=5, max_m=7))
    @settings(max_examples=30, deadline=None)
    def test_window_one_chromatic_equals_edge_chromatic(self, G):
        chi_p, _ = exact_edge_chromatic(G)
        chi, _ = exact_chromatic(link_graph(G, 1))
        if G.m:
            assert chi == chi_p

    @given(multigraphs(max_n=5, max_m=7))
    @settings(max_examples=30, deadline=None)
    def test_edge_chromatic_respects_degree_bounds(self, G):
        chi, col = exact_edge_chromatic(G)
        delta = G.max_degree()
        if G.m:
            assert delta <= chi <= 3 * delta // 2
            used = {}
            for eid, c in col.assignment.items():
                u, v = G.endpoints(eid)
                for x in (u, v):
                    assert c not in used.get(x, set())
                    used.setdefault(x, set()).add(c)


def _assert_saturation_kernels_agree(adj):
    """The saturation kernels give the reference copies' colour counts and
    colourings on ``adj``, assigned in the same order; the exact oracle is
    asked only up to its cap."""
    got, want = greedy_coloring(adj), reference_coloring.greedy_coloring(adj)
    assert got[0] == want[0] and list(got[1].items()) == list(want[1].items())
    if len(adj) <= DEFAULT_CHROMATIC_CAP:
        got, want = exact_chromatic(adj), reference_coloring.exact_chromatic(adj)
        assert got[0] == want[0] and got[1].t == want[1].t
        assert list(got[1].assignment.items()) == list(want[1].assignment.items())


class TestSaturationKernels:
    @given(multigraphs(max_n=7, max_m=10), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_saturation_kernels_match_the_reference_on_link_graphs(self, G, ell):
        try:
            H = link_graph(G, ell, 1000)
        except LimitExceeded:
            assume(False)
        _assert_saturation_kernels_agree(index_adjacency(G))
        _assert_saturation_kernels_agree(H.adjacency())

    @given(simple_adjacencies(max_n=14))
    @settings(max_examples=150, deadline=None)
    def test_saturation_kernels_match_the_reference_on_dense_graphs(self, adj):
        _assert_saturation_kernels_agree(adj)

    @pytest.mark.parametrize("G, ell", [(complete(6), 2), (petersen(), 3), (wheel(5), 3),
                                        (complete(4), 4), (complete_bipartite(2, 4), 4)])
    def test_saturation_kernels_match_the_reference_up_to_the_cap(self, G, ell):
        H = link_graph(G, ell)
        assert H.n <= DEFAULT_CHROMATIC_CAP
        _assert_saturation_kernels_agree(H.adjacency())

    def test_saturation_greedy_matches_the_reference_on_a_large_link_graph(self):
        H = link_graph(petersen(), 8)
        assert H.n == 1920
        _assert_saturation_kernels_agree(H.adjacency())


class TestRecolouring:
    def test_identity_when_few_classes(self):
        H = link_graph(complete(3), 0)
        chi, col = exact_chromatic(H)
        out = reduce_coloring(H, col, 2)
        assert out.assignment == col.assignment and out.t == col.t

    def test_six_classes_drop_to_five(self):
        # two cliques of three classes each, no vertex sees > 2 foreign colours
        adj = [set() for _ in range(6)]
        for block in ((0, 1, 2), (3, 4, 5)):
            for a in block:
                for b in block:
                    if a != b:
                        adj[a].add(b)
        col = Coloring({0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6}, 6)
        out = reduce_coloring(adj, col, 2)
        assert is_proper(adj, out)
        assert out.t == 5 and out.max_color() <= 5

    def test_precondition_violation(self):
        adj = [set() for _ in range(4)]
        for a in range(4):
            for b in range(4):
                if a != b:
                    adj[a].add(b)
        col = Coloring({0: 1, 1: 2, 2: 3, 3: 4}, 4)
        with pytest.raises(PreconditionViolated):
            reduce_coloring(adj, col, 2)

    def test_improper_input_rejected(self):
        adj = [{1}, {0}]
        with pytest.raises(PreconditionViolated):
            reduce_coloring(adj, Coloring({0: 1, 1: 1}, 1), 0)

    def test_an_improper_edge_is_named_before_a_crowded_vertex(self):
        # vertex 0 sees three foreign colours, and the edge 4-5 is improper
        adj = [{1, 2, 3}, {0}, {0}, {0}, {5}, {4}]
        col = Coloring({0: 4, 1: 1, 2: 2, 3: 3, 4: 1, 5: 1}, 4)
        with pytest.raises(PreconditionViolated, match="input colouring is not proper"):
            reduce_coloring(adj, col, 2)

    def test_a_loop_in_a_raw_list_is_ignored(self):
        # is_proper ignores the loop at 0, and so does the foreign-colour bound
        adj, col = [{0, 1}, {0}], Coloring({0: 1, 1: 2}, 2)
        out = reduce_coloring(adj, col, 1)
        assert out.assignment == col.assignment and out.t == col.t
        assert adj == [{0, 1}, {0}]

    def test_seeded_battery(self):
        assert recolouring_battery(120, seed=7) == []

    def test_random_instances_satisfy_precondition(self):
        import random

        rng = random.Random(5)
        for _ in range(40):
            adj, col, r = random_recolour_instance(rng)
            assert is_proper(adj, col)
            for v in range(len(adj)):
                assert len({col.assignment[w] for w in adj[v]}) <= r


LIFT_SCANS = [
    # base chi 3: no lift recolours, so each lifted graph is checked once
    (petersen(), 6, [("proper", 10), ("proper", 30), ("proper", 120), ("proper", 480)]),
    # base chi' 5: both lifts recolour (5 to 4 to 3 colours); each lifted
    # colouring is checked in the recolouring's first scan, recoloured, and
    # the output checked
    (complete(5), 5, [("proper", 10), ("recolour", 90), ("proper", 90),
                      ("recolour", 810), ("proper", 810)]),
]

# the kernel recursion lifts a palette of at most three colours straight to
# the top graph: the base check, two scans per lift with more than three
# colours, and one properness check of the top graph
KERNEL_LIFT_SCANS = [
    (petersen(), 6, [("proper", 10), ("proper", 480)]),
    (complete(5), 5, LIFT_SCANS[1][2]),
    (complete(5), 8, [("proper", 5), ("recolour", 30), ("proper", 30),
                      ("recolour", 270), ("proper", 270), ("proper", 21870)]),
]


def _record_scans(monkeypatch):
    """The list that every later ``is_proper`` and ``_recolour`` call of
    ``coloring`` appends its kind and colouring size to."""
    scans = []
    real_proper, real_recolour = coloring.is_proper, coloring._recolour

    def proper(H, col):
        scans.append(("proper", len(col.assignment)))
        return real_proper(H, col)

    def recolour(adj, col, r, improper=None):
        scans.append(("recolour", len(col.assignment)))
        return real_recolour(adj, col, r, improper)

    monkeypatch.setattr(coloring, "is_proper", proper)
    monkeypatch.setattr(coloring, "_recolour", recolour)
    return scans


class TestLifting:
    def test_bipartite_lift_stays_two(self):
        G = complete_bipartite(2, 3)
        lower = link_graph(G, 0)
        chi, col = exact_chromatic(lower)
        assert chi == 2
        out = lift_coloring(G, 2, lower, col)
        H = link_graph(G, 2)
        assert is_proper(H, out) and out.t == 2

    def test_lift_bound(self):
        for G in (complete(4), complete(5), wheel(5)):
            lower = link_graph(G, 0)
            chi, col = exact_chromatic(lower)
            out = lift_coloring(G, 2, lower, col)
            assert out.t == (2 * chi) // 3 + 1 or out.t == chi  # identity when chi <= 3
            assert is_proper(link_graph(G, 2), out)

    def test_recursive_known_values(self):
        rec = recursive_chromatic_bound(complete(5), 4)
        assert rec.coloring.t <= 3
        assert is_proper(rec.graph, rec.coloring)
        assert rec.exact_base and rec.base_value == 5

    def test_recursive_window_one_uses_edge_colouring(self):
        rec = recursive_chromatic_bound(dipole(4), 1)
        assert rec.base_kind == "edge-chromatic" and rec.coloring.t == 4

    def test_recursive_proper_everywhere(self):
        for G in (petersen(), parallel_bridge(), dipole(3)):
            for ell in range(5):
                rec = recursive_chromatic_bound(G, ell)
                if rec.graph.n:
                    assert is_proper(rec.graph, rec.coloring)

    @pytest.mark.parametrize("G, ell, want", KERNEL_LIFT_SCANS)
    def test_recursion_scans_each_lifted_graph_once(self, G, ell, want, monkeypatch):
        scans = _record_scans(monkeypatch)
        rec = recursive_chromatic_bound(G, ell)
        assert scans == want
        assert is_proper(rec.graph, rec.coloring)

    @pytest.mark.parametrize("G, ell, want", LIFT_SCANS)
    def test_harness_recursion_scans_as_the_kernel_recursion(self, G, ell, want, monkeypatch):
        scans = _record_scans(monkeypatch)
        rec = harness._Cache(Caps()).recursive(CorpusInstance("g", G), ell)
        assert scans == want
        assert rec.coloring == recursive_chromatic_bound(G, ell).coloring

    def test_lifted_check_is_the_reduction_precondition(self):
        # the lift checks properness on the edge ends, and both entry points
        # check the foreign-colour bound in _recolour
        star = LabeledGraph(0, ("a", "b", "c", "d"), ((0, 1, "x"), (0, 2, "y"), (0, 3, "z")))
        seen3 = Coloring({0: 1, 1: 2, 2: 3, 3: 4}, 4)
        same = [[0, 1, 2, 3]]
        with pytest.raises(PreconditionViolated, match="vertex 0 sees 3 foreign colours > r=2"):
            reduce_coloring(star, seen3, 2)
        with pytest.raises(PreconditionViolated, match="vertex 0 sees 3 foreign colours > r=2"):
            coloring._lift(seen3, same, star)
        with pytest.raises(PreconditionViolated, match="vertex 0 sees 3 foreign colours > r=1"):
            reduce_coloring(star, Coloring(seen3.assignment, 2), 1)  # t <= r + 1 too
        with pytest.raises(PreconditionViolated, match="lifted colouring is not proper"):
            coloring._lift(Coloring({0: 1, 1: 2, 2: 1, 3: 2}, 2), same, star)
        with pytest.raises(PartialColoring):
            coloring._lift(seen3, [[0, 1, 2]], star)
        three = Coloring({0: 1, 1: 2, 2: 3, 3: 2}, 3)
        assert coloring._lift(three, same, star) == three
        # two lifts at once: each table is read in turn
        assert coloring._lift(three, [[3, 2, 1, 0], [3, 2, 1, 0]], star) == three

    def test_a_length_past_the_last_arc_is_coloured_from_the_base_alone(self, tmp_path, capsys,
                                                                         monkeypatch):
        # a single edge has no 2-arc: at an even length past it only the
        # base K2 is built and coloured, and the top colouring is empty
        G, ell = path(1), 10**12
        want = reference_coloring.recursive_chromatic_bound(G, 2)
        builds, real = [], links._arc_levels
        monkeypatch.setattr(links, "_arc_levels", lambda *args: builds.append(args[2:]) or real(*args))
        start = time.perf_counter()
        rec = recursive_chromatic_bound(G, ell)
        assert builds == [(0, 1)]
        assert (rec.ell, rec.graph.n, rec.graph.m, rec.coloring) == (ell, 0, 0, Coloring({}, 0))
        assert (rec.exact_base, rec.base_kind, rec.base_value) == (
            want.exact_base, want.base_kind, want.base_value) == (True, "chromatic", 2)
        gfile = tmp_path / "p1.txt"
        gfile.write_text(G.serialize(), encoding="utf-8")
        assert cli.main(["color", "--method", "recursive", "--ell", str(ell), str(gfile)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "method": "recursive", "colors": 0, "exact_base": True, "base": "chromatic",
            "base_value": 2, "proper": True, "assignment": {}}
        assert time.perf_counter() - start < 1

    def test_recursion_rejects_an_improper_base_colouring(self, monkeypatch):
        # the run cache solves the base graph through its own memo
        for module in (coloring, harness):
            monkeypatch.setattr(module, "exact_chromatic",
                                lambda H, cap=None: (1, Coloring({i: 1 for i in range(H.n)}, 1)))
        for ell in (0, 2):
            with pytest.raises(WitnessInvalid, match="base colouring is not proper"):
                recursive_chromatic_bound(petersen(), ell)
            with pytest.raises(WitnessInvalid, match="base colouring is not proper"):
                harness._Cache(Caps()).recursive(CorpusInstance("g", petersen()), ell)

    def test_recursion_checks_the_top_graph_it_lifts_to(self, monkeypatch):
        # every link takes the colour of link 0 two levels down: the one check
        # on the top graph's edge ends sees it
        real = coloring._middle_ids
        monkeypatch.setattr(coloring, "_middle_ids",
                            lambda levels, ell: [0] * len(real(levels, ell)))
        with pytest.raises(PreconditionViolated, match="lifted colouring is not proper"):
            recursive_chromatic_bound(petersen(), 4)

    def test_a_corrupted_lift_gives_fail_records(self, monkeypatch):
        corpus = [CorpusInstance("K4", complete(4)), CorpusInstance("petersen", petersen())]

        def run():
            return harness.verify_suite(corpus=corpus, claims=["Thm1", "Cor4.4"],
                                        caps=Caps(ell_range=(0, 1, 2, 3, 4)))

        assert run().passed()
        real = coloring._middle_ids
        monkeypatch.setattr(coloring, "_middle_ids",
                            lambda levels, ell: [0] * len(real(levels, ell)))
        failed = run().failures()
        assert failed
        assert all("lifted colouring is not proper" in r.detail for r in failed)


class TestBounds:
    def test_even_window_example(self):
        b = chromatic_upper_bounds(complete(4), 2)
        assert b.chi == 4 and b.parity_bound == 3

    def test_zero_window_is_chromatic_number(self):
        b = chromatic_upper_bounds(petersen(), 0)
        assert b.parity_bound == b.chi == 3

    def test_odd_window_example(self):
        b = chromatic_upper_bounds(dipole(4), 3)
        assert b.chi_prime == 4 and b.parity_bound == 3

    def test_max_degree_bound_excluded_for_window_one(self):
        assert chromatic_upper_bounds(complete(4), 1).max_degree_bound is None
        assert chromatic_upper_bounds(complete(4), 0).max_degree_bound == 4

    def test_negative_floor_convention(self):
        # bipartite base: decayed bound may dip below three
        b = chromatic_upper_bounds(cycle(4), 2)
        assert b.chi == 2 and b.parity_bound == 2

    def test_negative_window_raises(self):
        with pytest.raises(InvalidParameter, match=r"^ell must be >= 0, got -1$"):
            chromatic_upper_bounds(petersen(), -1)

    def test_exact_within_bounds_on_corpus_sample(self):
        for G in (complete(4), dipole(3), cycle(5), complete_bipartite(2, 3)):
            for ell in range(4):
                H = link_graph(G, ell)
                if H.n > 64:
                    continue
                chi, _ = exact_chromatic(H)
                b = chromatic_upper_bounds(G, ell)
                assert chi <= b.parity_bound
                if b.max_degree_bound is not None:
                    assert chi <= b.max_degree_bound


BAD_RESULT_SCRIPT = """
import sys
from linkgraphs import coloring
from linkgraphs.coloring import Coloring, EdgeColoring
from linkgraphs.errors import WitnessInvalid
from linkgraphs.multigraph import complete, path

if sys.flags.optimize < 1:
    sys.exit("expected python -O")


def expect_raise(build):
    try:
        build()
    except WitnessInvalid as exc:
        print(exc)
    else:
        sys.exit("a bad result was returned")


PATH6 = [{1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {4}]
SIX = Coloring({v: v + 1 for v in range(6)}, 6)
real_chromatic, real_proper = coloring.exact_chromatic, coloring.is_proper
real_max_color, real_used = Coloring.max_color, Coloring.used

coloring.exact_chromatic = lambda adj, cap=None: (1, Coloring({i: 1 for i in range(len(adj))}, 1))
expect_raise(lambda: coloring.exact_edge_chromatic(complete(4)))
coloring.exact_chromatic = lambda H, cap=None: (1, Coloring({i: 1 for i in range(H.n)}, 1))
expect_raise(lambda: coloring.recursive_chromatic_bound(complete(4), 0))
coloring.exact_chromatic = real_chromatic

Coloring.max_color = lambda self: self.t + 1
expect_raise(lambda: coloring.reduce_coloring(PATH6, SIX, 2))
Coloring.max_color = real_max_color

coloring.is_proper = lambda H, col: False  # the output fails; _recolour checks the input
expect_raise(lambda: coloring.reduce_coloring(PATH6, SIX, 2))
coloring.is_proper = real_proper

Coloring.used = lambda self: -self.t  # the output seems to use more colours
expect_raise(lambda: coloring.reduce_coloring(PATH6, SIX, 2))
Coloring.used = real_used

coloring.exact_edge_chromatic = lambda G, cap=None: (1, EdgeColoring({e: 1 for e in G.edge_ids}, 1))
expect_raise(lambda: coloring.recursive_chromatic_bound(path(3), 1))
"""


def test_bad_results_raise_under_optimize():
    proc = run_optimized(BAD_RESULT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "edge-chromatic number 1 outside the Vizing-Shannon range for maximum degree 3",
        "base colouring is not proper",
        "recolouring exceeded its bound",
        "recolouring broke properness",
        "recolouring increased colour count",
        "edge colouring transported to the line graph is not proper",
    ]
