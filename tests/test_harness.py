from __future__ import annotations

import dataclasses
import gc
import json
import re
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from linkgraphs import cli, coloring, construction, harness, links, minors
from linkgraphs.coloring import (
    Coloring,
    exact_chromatic,
    lift_coloring,
    recursive_chromatic_bound,
    reduce_coloring,
)
from linkgraphs.cli import main
from linkgraphs.construction import LabeledGraph, link_graph, link_graph_connected
from linkgraphs.errors import InvalidParameter, LimitExceeded
from linkgraphs.links import link_count
from linkgraphs.harness import (
    ALL_CLAIMS,
    Caps,
    CorpusInstance,
    default_corpus,
    negative_controls,
    verify_suite,
)
from linkgraphs.minors import hadwiger_lower_bound, verify_minor
from linkgraphs.multigraph import (
    Multigraph,
    complete,
    complete_bipartite,
    cycle,
    dipole,
    path,
    petersen,
    random_multigraph,
)
from strategies import multigraphs


SMALL_CAPS = Caps(suite_links=4000, ell_range=(0, 1, 2, 3), recolour_instances=25)


def small_corpus():
    return [
        CorpusInstance("dipole(3)", dipole(3)),
        CorpusInstance("complete(4)", complete(4)),
    ]


class TestSuite:
    def test_small_run_is_green(self):
        report = verify_suite(corpus=small_corpus(), caps=SMALL_CAPS)
        assert report.passed()
        assert any(r.status == "pass" for r in report.records)

    def test_claim_filter(self):
        report = verify_suite(corpus=small_corpus(), claims=["Obs3.1"], caps=SMALL_CAPS)
        assert {r.claim for r in report.records} == {"Obs3.1"}

    def test_claim_prefix_selects_group(self):
        report = verify_suite(corpus=small_corpus(), claims=["Thm1"], caps=SMALL_CAPS)
        assert {r.claim for r in report.records} <= {
            "Thm1.1", "Thm1.2", "Thm1.3", "Thm1.4"
        }

    def test_report_is_deterministic(self):
        a = verify_suite(corpus=small_corpus(), claims=["Obs3.1"], caps=SMALL_CAPS)
        b = verify_suite(corpus=small_corpus(), claims=["Obs3.1"], caps=SMALL_CAPS)
        strip = lambda text: [
            {k: v for k, v in rec.items() if k != "ms"}
            for rec in json.loads(text)["records"]
        ]
        assert strip(a.to_json()) == strip(b.to_json())

    def test_report_schema(self):
        report = verify_suite(corpus=small_corpus(), claims=["Obs3.3"], caps=SMALL_CAPS)
        data = json.loads(report.to_json())
        assert data["report_version"] == 1
        assert data["claims_covered"] == ALL_CLAIMS
        assert data["out_of_scope"]
        assert {"pass", "fail", "skip"} <= set(data["counts"])

    def test_default_corpus_shape(self):
        names = [inst.name for inst in default_corpus()]
        assert "petersen" in names and "parallel-bridge" in names
        assert sum(1 for n in names if n.startswith("random")) == 2


class TestClaimTable:
    CORPUS = small_corpus() + [
        CorpusInstance("bipartite(2,3)", complete_bipartite(2, 3), (2, 3))]
    # Thm3.3 holds for complete(4) from ell = 4 on
    CAPS = Caps(suite_links=4000, ell_range=(0, 1, 2, 3, 4), recolour_instances=25)

    def test_a_selected_claim_runs_only_its_own_check(self, monkeypatch):
        assert [claim.name for claim in harness._CLAIMS] == ALL_CLAIMS
        assert len(set(ALL_CLAIMS)) == len(ALL_CLAIMS)
        ran = Counter()

        def counting(claim):
            def check(inst, caps, cache, ell):
                ran[claim.name] += 1
                return claim.check(inst, caps, cache, ell)

            return dataclasses.replace(claim, check=check)

        monkeypatch.setattr(harness, "_CLAIMS", [counting(c) for c in harness._CLAIMS])
        for name in ALL_CLAIMS:
            ran.clear()
            report = verify_suite(corpus=self.CORPUS, claims=[name], caps=self.CAPS)
            assert report.records and {r.claim for r in report.records} == {name}
            assert ran == {name: len(report.records)}

    def test_an_unknown_claim_is_rejected(self):
        with pytest.raises(InvalidParameter) as exc:
            verify_suite(corpus=small_corpus(), claims=["Obs3.1", "Thm9"], caps=SMALL_CAPS)
        assert "'Thm9'" in str(exc.value) and ", ".join(ALL_CLAIMS) in str(exc.value)

    def test_verify_exits_two_on_an_unknown_claim(self, tmp_path, capsys):
        gfile = tmp_path / "k4.txt"
        main(["gen", "complete", "4", "--out", str(gfile)])
        out = tmp_path / "report.json"
        assert main(["verify", "--claims", "Thm9", "--out", str(out), str(gfile)]) == 2
        assert "Thm9" in capsys.readouterr().err and not out.exists()

    def test_lem35_reads_its_middle_segments_off_the_one_kernel(self, monkeypatch):
        # at ell = 4 Lem3.5 reads the middle segments of the 6-links
        builds = []
        for module in (harness, links):
            def counting(G, fwd, ell, top, real=module._arc_levels):
                builds.append(G.serialize())
                return real(G, fwd, ell, top)

            monkeypatch.setattr(module, "_arc_levels", counting)
        report = verify_suite(corpus=self.CORPUS, claims=["Lem3.5"],
                              caps=Caps(ell_range=(0, 1, 2, 3, 4)))
        assert report.passed()
        assert builds == [inst.graph.serialize() for inst in self.CORPUS]

    # Theorem 3's cases read the degeneracy: each Thm3.k row, whose case
    # cannot be decided, gets a fail record at each length
    @pytest.mark.parametrize("method, claim", [("girth", "PathGirth"), ("degeneracy", "Thm2"),
                                               ("degeneracy", "Thm3")])
    def test_a_broken_instance_value_gives_fail_records(self, method, claim, monkeypatch):
        def broken(G):
            raise RuntimeError(f"{method} crashed")

        monkeypatch.setattr(Multigraph, method, broken)
        report = verify_suite(corpus=self.CORPUS, claims=[claim], caps=SMALL_CAPS)
        rows = [c for c in ALL_CLAIMS if c.startswith(claim)]
        ells = SMALL_CAPS.minor_ells if claim == "Thm2" else SMALL_CAPS.ell_range
        assert len(report.records) == len(self.CORPUS) * len(ells) * len(rows)
        assert all((r.status, r.detail) == ("fail", f"RuntimeError: {method} crashed")
                   for r in report.records)


class TestTheorem3Skips:
    @staticmethod
    def _thm3(G, ell):
        report = verify_suite(corpus=[CorpusInstance("g", G)], claims=["Thm3"],
                              caps=Caps(ell_range=(ell,)))
        return [(r.claim, r.status, r.detail) for r in report.records]

    def test_ell_zero_names_the_hadwiger_cap(self):
        assert self._thm3(cycle(13), 0) == [
            ("Thm3.5", "skip", "link graph beyond the Hadwiger cap 12; no witness route at ell=0")
        ]

    def test_edgeless_link_graph_says_so(self):
        matching = Multigraph([], [(f"e{k}", f"a{k}", f"b{k}") for k in range(13)])
        assert self._thm3(matching, 1) == [("Thm3.5", "skip", "link graph has no edge")]

    def test_a_skip_beyond_the_colouring_cap_builds_nothing(self, monkeypatch):
        # Petersen has 120 links at length 4 and 240 at length 5
        for module, name in ((harness, "_arc_levels"), (harness, "_windows_graph"),
                             (links, "_arc_levels"), (construction, "_windows_graph")):
            monkeypatch.setattr(module, name, None)
        report = verify_suite(corpus=[CorpusInstance("petersen", petersen())], claims=["Thm3"],
                              caps=Caps(ell_range=(4, 5)))
        assert [(r.claim, r.ell, r.status, r.detail) for r in report.records] == [
            (f"Thm3.{case}", ell, "skip", "link graph beyond an oracle cap")
            for ell in (4, 5) for case in (1, 2, 3, 4, 5) if case != 2 or ell == 4]


def _rows(report):
    records = json.loads(report.to_json())["records"]
    return sorted(
        ({k: v for k, v in rec.items() if k != "ms"} for rec in records),
        key=lambda rec: (rec["claim"], rec["instance"], str(rec["ell"])),
    )


class TestOracleMemo:
    CORPUS = [
        CorpusInstance("bipartite(2,4)", complete_bipartite(2, 4), (2, 4)),
        CorpusInstance("cycle(5)", cycle(5)),
        CorpusInstance("path(5)", path(5)),
        CorpusInstance("dipole(2)", dipole(2)),
    ]
    CAPS = Caps(ell_range=(0, 1, 2, 3))
    CLAIMS = ["Thm1", "Thm2", "Thm3"]

    def test_each_answer_is_computed_once(self, monkeypatch):
        calls = Counter()

        def counting(name, key):
            real = getattr(harness, name)

            def wrapper(*args, **kwargs):
                k = key(*args, **kwargs)
                if k is not None:
                    calls[(name,) + k] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(harness, name, wrapper)

        counting("hadwiger_number", lambda G, cap: (G.serialize(),))
        # a link graph's eta reads the graph's own adjacency list
        held = []

        def adjacency_key(adj, cap):
            held.append(adj)  # kept alive, so no two calls share an id
            return (id(adj),)

        counting("_hadwiger", adjacency_key)
        # link graphs only: Cor1.2 and ArcChrom colour other graphs
        counting("exact_chromatic",
                 lambda H, cap: (H.ell, H.to_json()) if isinstance(H, LabeledGraph) else None)
        counting("_lower_bound", lambda G, ell, *args: (G.serialize(), ell))
        verify_suite(corpus=self.CORPUS, claims=self.CLAIMS, caps=self.CAPS)
        assert {k[0] for k in calls} == {"hadwiger_number", "_hadwiger", "exact_chromatic",
                                         "_lower_bound"}
        assert max(calls.values()) == 1, [(k[0], c) for k, c in calls.items() if c > 1]

    def test_a_default_run_solves_each_base_graph_once(self, monkeypatch):
        # the base graph and its 0-link graph share one solve, which the
        # recursive colouring, Thm1.x and Cor1.2 read
        solved = Counter()
        for module in (harness, coloring):
            def counting(H, cap=coloring.DEFAULT_CHROMATIC_CAP, real=module.exact_chromatic):
                if isinstance(H, LabeledGraph) and H.ell == 0:
                    solved[H.source.serialize()] += 1
                elif isinstance(H, Multigraph):
                    solved[H.serialize()] += 1
                return real(H, cap)

            monkeypatch.setattr(module, "exact_chromatic", counting)
        corpus = default_corpus()
        assert verify_suite(corpus=corpus).passed()
        assert sum(solved.values()) == len(corpus) == 31
        assert sorted(solved) == sorted(inst.graph.serialize() for inst in corpus)

    def test_the_model_route_reads_eta_of_the_base_graph_off_the_memo(self, monkeypatch):
        calls = Counter()
        for module in (harness, minors):
            def counting(G, cap=minors.DEFAULT_HADWIGER_CAP, real=module.hadwiger_number):
                calls[G.serialize()] += 1
                return real(G, cap)

            monkeypatch.setattr(module, "hadwiger_number", counting)
        report = verify_suite(corpus=self.CORPUS, claims=["Thm2"], caps=self.CAPS)
        assert {r.status for r in report.records} == {"pass"}
        assert [calls[inst.graph.serialize()] for inst in self.CORPUS] == [1] * len(self.CORPUS)

    def test_records_do_not_depend_on_which_claim_filled_the_memo(self):
        combined = verify_suite(corpus=self.CORPUS, claims=self.CLAIMS, caps=self.CAPS)
        separate = []
        for claim in self.CLAIMS:
            separate += _rows(verify_suite(corpus=self.CORPUS, claims=[claim], caps=self.CAPS))
        key = lambda rec: (rec["claim"], rec["instance"], str(rec["ell"]))
        assert _rows(combined) == sorted(separate, key=key)
        assert {r["claim"][:4] for r in separate} == {"Thm1", "Thm2", "Thm3"}


def test_cor38_gives_the_answer_of_link_graph_connected():
    caps = Caps()
    report = verify_suite(claims=["Cor3.8"], caps=caps)
    got = {(r.instance, r.ell): (r.status, r.detail) for r in report.records}
    assert len(got) == len(report.records) == len(default_corpus()) * len(caps.ell_range)
    for inst in default_corpus():
        for ell in caps.ell_range:
            if got[inst.name, ell][0] == "skip":
                with pytest.raises(LimitExceeded):
                    link_graph(inst.graph, ell, caps.suite_links)
                continue
            answer = link_graph_connected(inst.graph, ell, caps.suite_links)
            assert got[inst.name, ell] == ("pass", f"criterion = BFS = {answer}")


class TestBuildOnce:
    """One run builds each link graph once and derives the rest from it."""

    CLAIMS = ["Obs3.1", "Lem3.5", "Lem3.7", "Lem4.1", "PathGirth", "Thm1", "Cor1.2", "Cor4.4"]
    CAPS = Caps(ell_range=(0, 1, 2, 3, 4, 5))

    def test_each_link_graph_and_recursive_colouring_is_built_once(self, monkeypatch):
        calls = Counter()

        def counting(name, key):
            real = getattr(harness, name)

            def wrapper(*args):
                calls[(name, *key(*args))] += 1
                return real(*args)

            monkeypatch.setattr(harness, name, wrapper)

        # every link graph is read off the one kernel of its instance
        counting("_arc_levels", lambda G, fwd, ell, top: (G.serialize(), top))
        counting("_windows_graph", lambda G, ell, windows: (G.serialize(), ell))
        counting("_base_coloring", lambda G, H, solve: (G.serialize(), H.ell))
        counting("_lifted", lambda below, H, levels: (H.source.serialize(), H.ell))
        # a hub is read off the run's arc counts, once per set of middle units
        counting("_hub_graph",
                 lambda G, ell, units: (G.serialize(), (ell % 2, frozenset(units))))
        for module in (harness, construction, links, minors):
            monkeypatch.setattr(module, "hub_subgraph", None, raising=False)
        # the colouring claims read the link graphs of the run
        monkeypatch.setattr(coloring, "link_graph", None)
        monkeypatch.setattr(harness, "link_graph", None)
        report = verify_suite(corpus=small_corpus(), claims=self.CLAIMS, caps=self.CAPS)
        assert report.passed()
        built = {(G, ell) for name, G, ell in calls if name == "_windows_graph"}
        assert len(built) == 2 * len(self.CAPS.ell_range)
        hubs = {(G, units) for name, G, units in calls if name == "_hub_graph"}
        assert {G for G, _ in hubs} == {G for G, _ in built}
        kernels = [(G, top) for name, G, top in calls if name == "_arc_levels"]
        assert sorted(kernels) == sorted((inst.graph.serialize(), max(self.CAPS.ell_range) + 1)
                                         for inst in small_corpus())
        assert {name for name, _, _ in calls} == {
            "_arc_levels", "_windows_graph", "_base_coloring", "_lifted", "_hub_graph"}
        assert max(calls.values()) == 1, [k for k, c in calls.items() if c > 1]
        # Cor4.4 lifts to the top length on both instances
        assert ("_lifted", complete(4).serialize(), 5) in calls

    @pytest.mark.parametrize("span", [(0, 6), (0, 0)])
    def test_cache_hub_is_the_hub_subgraph(self, span):
        # within the run's counts and past them; with an isolated vertex, and
        # on path(3) past its last arc length
        lonely = Multigraph(["z"], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])
        corpus = default_corpus() + [CorpusInstance("lonely", lonely),
                                     CorpusInstance("path(3)", path(3))]
        for inst in corpus:
            G, cache = inst.graph, harness._Cache(Caps(), span)
            for ell in range(7):
                try:
                    units = links.middle_units(G, ell, cache.caps.suite_links)
                except LimitExceeded as exc:
                    with pytest.raises(LimitExceeded, match=re.escape(str(exc))):
                        cache.hub(inst, ell)
                    continue
                want = G.edge_subgraph(units) if ell % 2 else G.induced_subgraph(units)
                assert links.hub_subgraph(G, ell, cache.caps.suite_links) == want
                got = cache.hub(inst, ell)
                assert (got.vertices, got.edge_ids) == (want.vertices, want.edge_ids)
                assert (got is G) == (want == G)
                for s in (0, 1, 2):
                    assert cache.hub_links(inst, ell, s) == harness._hub_links(want, s)
            cache.release()

    def test_a_default_run_makes_each_length_free_fact_once(self, monkeypatch):
        # per instance one arc count, one chain digraph deepened from depth 1,
        # and the components of each graph searched once
        calls = Counter()
        for owner, name in ((harness, "_walks"), (construction, "enumerate_arcs"),
                            (links, "hub_subgraph"), (Multigraph, "_bfs_dist")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, real=real, name=name:
                                calls.update([name]) or real(*args))
        assert verify_suite().passed()
        assert calls["_walks"] == calls["enumerate_arcs"] == len(default_corpus())
        assert calls["hub_subgraph"] == 0
        assert calls["_bfs_dist"] <= 1400

    @pytest.mark.parametrize("claims, caps, want", [
        (["Thm2"], Caps(), (1, 4)),
        (["Thm2", "Thm3"], Caps(ell_range=(3,), minor_ells=(3,)), (3, 4)),
        (["DigraphIso"], Caps(), (1, 4)),
        (["Lem4.1"], Caps(ell_range=(2, 3)), (0, 4)),
    ])
    def test_a_run_builds_only_the_levels_it_reads(self, claims, caps, want, monkeypatch):
        builds = []
        real = harness._arc_levels

        def counting(G, fwd, ell, top):
            builds.append((ell, top))
            return real(G, fwd, ell, top)

        monkeypatch.setattr(harness, "_arc_levels", counting)
        assert verify_suite(corpus=small_corpus()[:1], claims=claims, caps=caps).passed()
        assert builds == [want]

    def test_middle_segments_are_collected_once_per_length(self, monkeypatch):
        real = harness._middle_tuples
        for inst in small_corpus():
            calls = Counter()

            def counting(G, levels, length, s):
                calls[(length, s)] += 1
                return real(G, levels, length, s)

            monkeypatch.setattr(harness, "_middle_tuples", counting)
            report = verify_suite(corpus=[inst], claims=["Lem3.5"], caps=self.CAPS)
            assert report.passed()
            # ell = 2h and 2h + 1 look up the same three sets
            assert set(calls) == {(2 * h + s, s) for h in range(3) for s in (0, 1, 2)}
            assert max(calls.values()) == 1

    def test_recursive_colouring_equals_the_public_one(self):
        inst = small_corpus()[1]
        cache = harness._Cache(self.CAPS)
        for ell in self.CAPS.ell_range:
            got = cache.recursive(inst, ell)
            want = recursive_chromatic_bound(inst.graph, ell, self.CAPS.chromatic_cap,
                                             self.CAPS.suite_links)
            assert got.graph.same_labeled_graph(want.graph)
            assert (got.coloring, got.exact_base, got.base_kind, got.base_value) == (
                want.coloring, want.exact_base, want.base_kind, want.base_value)

    def test_recursive_colouring_beyond_the_budget_raises_as_link_graph_does(self):
        inst = CorpusInstance("complete(4)", complete(4))
        cache = harness._Cache(Caps(suite_links=40))
        with pytest.raises(LimitExceeded) as got:
            cache.recursive(inst, 4)
        with pytest.raises(LimitExceeded) as want:
            recursive_chromatic_bound(inst.graph, 4, limit=40)
        assert str(got.value) == str(want.value)

    def test_adjacency_is_built_once_and_never_changed(self):
        G = complete(4)
        H = link_graph(G, 2)
        adj = H.adjacency()
        before = [set(s) for s in adj]
        _, col = exact_chromatic(H)
        reduce_coloring(H, col, max(len(s) for s in adj))
        lower = link_graph(G, 0)
        lift_coloring(G, 2, lower, exact_chromatic(lower)[1], upper=H)
        assert verify_minor(H, hadwiger_lower_bound(G, 2, H=H).witness).ok
        assert H.adjacency() is adj and adj == before

    def test_same_labeled_graph_sees_a_swapped_label(self):
        H = link_graph(complete(4), 1)
        (a, b, p), (c, d, q) = H.edges[0], H.edges[-1]
        swapped = (a, b, q), *H.edges[1:-1], (c, d, p)
        assert H.same_labeled_graph(LabeledGraph(H.ell, H.vertices, H.edges))
        assert not H.same_labeled_graph(LabeledGraph(H.ell, H.vertices, swapped))

    def test_release_leaves_no_link_graph_of_the_instance_alive(self, monkeypatch):
        # the recursive colourings, minor witnesses and colourings of an
        # instance hold its link graphs; release drops them with the kernel
        built, alive = [], []
        real_graph, real_release = harness._windows_graph, harness._Cache.release

        def recording(G, ell, levels):
            H = real_graph(G, ell, levels)
            built.append(weakref.ref(H))
            return H

        def release(cache):
            real_release(cache)
            gc.collect()
            alive.append(sum(ref() is not None for ref in built))

        monkeypatch.setattr(harness, "_windows_graph", recording)
        monkeypatch.setattr(harness._Cache, "release", release)
        corpus = small_corpus() + [CorpusInstance("path(5)", path(5))]
        report = verify_suite(corpus=corpus, caps=Caps(ell_range=(0, 1, 2, 3),
                                                       recolour_instances=5))
        assert report.passed() and built
        assert {"Thm1.1", "Cor4.4", "Thm2", "Thm3.1"} <= {r.claim for r in report.records}
        assert alive == [0] * len(corpus)

    def test_records_equal_separate_runs(self):
        combined = verify_suite(corpus=small_corpus(), claims=self.CLAIMS, caps=self.CAPS)
        separate = []
        for claim in self.CLAIMS:
            separate += _rows(verify_suite(corpus=small_corpus(), claims=[claim],
                                           caps=self.CAPS))
        key = lambda rec: (rec["claim"], rec["instance"], str(rec["ell"]))
        assert _rows(combined) == sorted(separate, key=key)
        assert {r["claim"] for r in separate} >= {
            "Obs3.1", "Lem3.5", "Lem3.7", "Lem4.1", "PathGirth", "Thm1.1", "Thm1.2", "Cor1.2",
            "Cor4.4"}


class TestUnexpectedErrors:
    CORPUS = [CorpusInstance("cycle(5)", cycle(5)), CorpusInstance("path(5)", path(5))]
    CAPS = Caps(ell_range=(1,))

    @staticmethod
    def _break_oracle_on_cycle5(monkeypatch):
        # the link graphs' eta reads their adjacency; path(5)'s differs
        broken = link_graph(cycle(5), 1).adjacency()
        real = harness._hadwiger

        def oracle(adj, cap):
            if adj == broken:
                raise RuntimeError("oracle crashed")
            return real(adj, cap)

        monkeypatch.setattr(harness, "_hadwiger", oracle)

    def test_exception_becomes_a_fail_record(self, monkeypatch):
        before = _rows(verify_suite(corpus=self.CORPUS, claims=["Thm3"], caps=self.CAPS))
        self._break_oracle_on_cycle5(monkeypatch)
        report = verify_suite(corpus=self.CORPUS, claims=["Thm3"], caps=self.CAPS)
        after = _rows(report)
        assert not report.passed()
        broken = [r for r in after if r["instance"] == "cycle(5)"]
        assert [r["claim"] for r in broken] == ["Thm3.1", "Thm3.5"]
        assert all(r["status"] == "fail" and r["detail"] == "RuntimeError: oracle crashed"
                   for r in broken)
        untouched = [r for r in after if r["instance"] != "cycle(5)"]
        assert untouched and untouched == [r for r in before if r["instance"] != "cycle(5)"]

    def test_verify_exits_one(self, monkeypatch, tmp_path):
        gfile = tmp_path / "c5.txt"
        main(["gen", "cycle", "5", "--out", str(gfile)])
        self._break_oracle_on_cycle5(monkeypatch)
        out = tmp_path / "report.json"
        rc = main(["verify", "--claims", "Thm3", "--ell", "1", "--out", str(out), str(gfile)])
        assert rc == 1
        assert json.loads(out.read_text())["counts"]["fail"] == 2


class TestOracleCallsInsideRecords:
    """A bad answer from an oracle whose call feeds several claims gives
    ``fail`` records for that instance only; the run goes on."""

    CORPUS = [CorpusInstance("cycle(5)", cycle(5)), CorpusInstance("path(5)", path(5)),
              CorpusInstance("dipole(2)", dipole(2))]
    CAPS = Caps(ell_range=(0, 1, 2, 3), minor_ells=(1, 2))

    @staticmethod
    def _break_chromatic(monkeypatch):
        """An improper colouring for cycle(5)'s link graphs, a crash for path(5)'s."""
        real = harness.exact_chromatic

        def oracle(H, cap):
            # a link graph, or at ell = 0 the base graph, which the run solves
            G = H.source if isinstance(H, LabeledGraph) else H
            if G == cycle(5):
                return 1, Coloring({i: 0 for i in range(H.n)}, 1)
            if G == path(5):
                raise RuntimeError("oracle crashed")
            return real(H, cap)

        monkeypatch.setattr(harness, "exact_chromatic", oracle)

    def test_bad_colourings_become_fail_records(self, monkeypatch):
        claims = ["Thm1", "Thm3"]
        before = _rows(verify_suite(corpus=self.CORPUS, claims=claims, caps=self.CAPS))
        self._break_chromatic(monkeypatch)
        after = _rows(verify_suite(corpus=self.CORPUS, claims=claims, caps=self.CAPS))
        details = {name: {r["detail"] for r in after
                          if r["instance"] == name and r["status"] == "fail"}
                   for name in ("cycle(5)", "path(5)")}
        assert details["cycle(5)"] == {
            f"WitnessInvalid: exact_chromatic gave an improper colouring at ell={ell}"
            for ell in self.CAPS.ell_range
        }
        assert details["path(5)"] == {"RuntimeError: oracle crashed"}
        assert {r["claim"] for r in after if r["status"] == "fail"} >= {
            "Thm1.1", "Thm1.2", "Thm1.3", "Thm1.4", "Thm3.5"}
        untouched = [r for r in after if r["instance"] == "dipole(2)"]
        assert untouched and untouched == [r for r in before if r["instance"] == "dipole(2)"]

    def test_verify_exits_one_on_a_bad_colouring(self, monkeypatch, tmp_path):
        gfile = tmp_path / "c5.txt"
        main(["gen", "cycle", "5", "--out", str(gfile)])
        self._break_chromatic(monkeypatch)
        out = tmp_path / "report.json"
        rc = main(["verify", "--claims", "Thm1", "--ell", "1", "--out", str(out), str(gfile)])
        assert rc == 1
        assert json.loads(out.read_text())["counts"]["fail"] >= 1

    def test_base_eta_crash_becomes_fail_records(self, monkeypatch):
        before = _rows(verify_suite(corpus=self.CORPUS, claims=["Thm2"], caps=self.CAPS))
        real = harness.hadwiger_number
        base = cycle(5).serialize()

        def oracle(G, cap):
            if G.serialize() == base:
                raise RuntimeError("oracle crashed")
            return real(G, cap)

        monkeypatch.setattr(harness, "hadwiger_number", oracle)
        after = _rows(verify_suite(corpus=self.CORPUS, claims=["Thm2"], caps=self.CAPS))
        broken = [r for r in after if r["instance"] == "cycle(5)"]
        assert [(r["ell"], r["status"], r["detail"]) for r in broken] == [
            (ell, "fail", "RuntimeError: oracle crashed") for ell in (1, 2)]
        assert ([r for r in after if r["instance"] != "cycle(5)"]
                == [r for r in before if r["instance"] != "cycle(5)"])


class TestNegativeControls:
    def test_all_corruptions_detected(self):
        results = negative_controls()
        assert len(results) == 4
        assert all(detected for _, detected in results)


def _certified(records):
    """The records a certificate decided, by (instance, claim, ell)."""
    return {(r.instance, r.claim, r.ell): r for r in records
            if r.detail.startswith("certificate")}


class TestCertificates:
    """Beyond the colouring cap, Thm1.1-Thm1.4 and ArcChrom are decided by
    checked certificates: a proper colouring bounds chi from above, and an
    edge or an odd closed walk from below."""

    CLAIMS = ["Thm1", "ArcChrom"]
    GRAPHS = {"complete(4)": complete(4), "petersen": petersen()}
    # complete(4) has 6 links of length 1 and 12 of length 2
    CAPS = Caps(chromatic_cap=6, ell_range=(0, 1, 2, 3, 4))

    def _run(self):
        """The records of the run, by (instance, claim, ell), less their timings."""
        corpus = [CorpusInstance(name, G) for name, G in self.GRAPHS.items()]
        return {(r.instance, r.claim, r.ell): dataclasses.replace(r, ms=0)
                for r in verify_suite(corpus, self.CLAIMS, self.CAPS).records}

    def _beyond_cap(self, key):
        name, _, ell = key
        return link_count(self.GRAPHS[name], ell) > self.CAPS.chromatic_cap

    @settings(max_examples=40, deadline=None)
    @given(multigraphs(max_n=5, max_m=7))
    @example(complete(4))
    def test_certificate_statuses_match_the_oracle(self, G):
        # with the cap at the base graph's size, the base oracles stay exact
        # and the link graphs from length 2 on go to the certificates; the
        # default cap leaves them to the oracle
        inst, ells = [CorpusInstance("g", G)], (0, 1, 2, 3)
        low = Caps(chromatic_cap=max(G.n, G.m), ell_range=ells)
        by_certificate = _certified(verify_suite(inst, self.CLAIMS, low).records)
        by_oracle = {(r.instance, r.claim, r.ell): r
                     for r in verify_suite(inst, self.CLAIMS, Caps(ell_range=ells)).records
                     if r.status != "skip" and not r.detail.startswith("certificate")}
        shared = by_certificate.keys() & by_oracle.keys()
        assert {k: by_certificate[k].status for k in shared} == {
            k: by_oracle[k].status for k in shared}
        assert {r.status for r in by_certificate.values()} <= {"pass"}

    def test_certificates_decide_what_the_cap_leaves(self):
        records = self._run()
        certified = _certified(records.values())
        assert {k[1] for k in certified} == {"Thm1.1", "Thm1.2", "Thm1.3", "Thm1.4", "ArcChrom"}
        assert all(r.status == "pass" for r in records.values() if r.status != "skip")

    def test_a_shifted_colour_in_the_cached_palette_gives_certificate_fail_records(
            self, monkeypatch):
        certified = _certified(self._run().values())
        real = harness._Cache.recursive

        def shifted(cache, inst, ell):
            rec = real(cache, inst, ell)
            if rec.graph.n <= self.CAPS.chromatic_cap:
                return rec
            # the ends of the first edge take one colour
            a, b = (table[0] for table in rec.graph._pairs())
            colours = dict(rec.coloring.assignment)
            colours[a] = colours[b]
            return dataclasses.replace(rec, coloring=Coloring(colours, rec.coloring.t))

        monkeypatch.setattr(harness._Cache, "recursive", shifted)
        after = self._run()
        # the certificates on the oracle's colouring read no palette
        palette = {k for k in certified if self._beyond_cap(k)}
        assert palette and {after[k].status for k in palette} == {"fail"}
        assert all(after[k] == certified[k] for k in certified.keys() - palette)

    @pytest.mark.parametrize("mutant", ["even walk", "walk with a non-edge"])
    def test_a_bad_odd_walk_certificate_is_rejected(self, mutant, monkeypatch):
        before = self._run()
        real = harness._odd_closed_walk

        def bad(adj):
            walk = real(adj)
            a = walk[0]
            if mutant == "even walk":
                # along an edge and back: closed, but of even length
                return [a, min(adj[a])]
            # the first step goes to a vertex that is not a neighbour
            return [a, min(set(range(len(adj))) - adj[a] - {a}), *walk[2:]]

        monkeypatch.setattr(harness, "_odd_closed_walk", bad)
        after = self._run()
        changed = {k for k in before if after[k] != before[k]}
        assert changed & _certified(before.values()).keys()
        assert all(after[k].status == "fail" and "certificate: not an odd closed walk"
                   in after[k].detail for k in changed)

    @settings(max_examples=40, deadline=None)
    @given(multigraphs(max_n=5, max_m=7))
    @example(complete(4))
    def test_certificate_intervals_hold_the_oracle_chi(self, G):
        # at a cap of 0 every link graph with a vertex is certified
        caps = Caps(chromatic_cap=0, ell_range=(0, 1, 2, 3))
        inst, cache = CorpusInstance("g", G), harness._Cache(caps, (0, 4))
        for ell in caps.ell_range:
            H = link_graph(G, ell)
            lo, hi, certified = harness._chi_bounds(inst, caps, cache, ell)
            assert certified == (H.n > 0)
            if H.n <= 40:
                assert lo <= exact_chromatic(H, None)[0] <= hi


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=5, max_m=7))
def test_an_odd_walk_certificate_exists_exactly_when_chi_exceeds_two(G):
    for ell in (0, 1, 2):
        adj = link_graph(G, ell).adjacency()
        if len(adj) > 40:
            continue
        walk = harness._odd_closed_walk(adj)
        assert (walk is None) == (exact_chromatic(adj, None)[0] <= 2)
        if walk is not None:
            assert harness._is_odd_closed_walk(adj, walk)
            # an even walk, a step off the graph, an index out of range
            assert not harness._is_odd_closed_walk(adj, walk[:-1])
            assert not harness._is_odd_closed_walk(adj, [walk[0]] * len(walk))
            assert not harness._is_odd_closed_walk(adj, walk[:-1] + [-1])


# values for the CLI fuzz: small, negative, malformed and empty; ``None``
# leaves an option's value out
_ELLS = ["0", "1", "2", "3", "0..3", "1..2", "2..2", "3..1", "-1", "x", "1..x", "", None]
_COUNTS = ["0", "3", "64", "-5", "x", "", None]
_GRAPH_LINES = [b"a b", b"b c", b"c a", b"a a", b"v d", b"# note", b"a", b"a b c", b"\xff"]


@st.composite
def _graph_file(draw, tmp_path):
    """The input path as a list of argv entries: a generator's edge list
    (most often), arbitrary bytes, a few lines of the edge-list format, a
    missing file, a directory, or no path at all."""
    kind = draw(st.sampled_from(["graph"] * 3 + ["bytes", "lines", "missing", "directory",
                                                 "none"]))
    if kind == "none":
        return []
    name = tmp_path / kind
    if kind == "graph":
        G = draw(st.sampled_from([cycle(4), complete(4), dipole(3), path(2)]))
        name.write_text(G.serialize(), encoding="utf-8")
    elif kind == "bytes":
        name.write_bytes(draw(st.binary(max_size=24)))
    elif kind == "lines":
        name.write_bytes(b"\n".join(draw(st.lists(st.sampled_from(_GRAPH_LINES), max_size=6))))
    elif kind == "directory":
        name.mkdir(exist_ok=True)
    return [str(name)]


def _option(flag, values):
    """An option as a list of argv entries: left out, given without its
    value, or given one of ``values``."""
    return st.one_of(st.just([]), st.sampled_from(values).map(
        lambda v: [flag] if v is None else [flag, v]))


@st.composite
def _argv(draw, tmp_path):
    """argv for one of the six subcommands, from a small grammar; generator
    parameters stay at 6 or below and lengths at 3 or below."""
    command = draw(st.sampled_from(["gen", "build", "stats", "color", "minor", "verify"]))
    out = draw(_option("--out", [str(tmp_path / "out.txt"), str(tmp_path / "no" / "out")]))
    if command == "gen":
        name = draw(st.sampled_from(["dipole", "complete", "complete-bipartite", "cycle",
                                     "path", "petersen", "wheel", "parallel_bridge",
                                     "random", "grid"]))
        params = draw(st.lists(st.sampled_from(["0", "2", "3", "6", "-1", "x", "2.5"]),
                               max_size=3))
        return ["gen", name, *params, *out]
    options = [_option("--ell", _ELLS), _option("--limit", _COUNTS)]
    if command == "verify":
        options.append(_option("--claims", ["Obs3.1", "Obs3.3", "Nope"]))
        options.append(_option("--oracle-cap", _COUNTS))
    if command == "minor":
        options.append(_option("--hadwiger-cap", _COUNTS))
    if command == "build":
        options.append(_option("--format", ["json", "dot", "edgelist", "xml"]))
        options.append(_option("--kind", ["link", "path", "arc", "iterated"]))
    if command == "color":
        options.append(_option("--oracle-cap", _COUNTS))
        options.append(_option("--method", ["exact", "recursive", "greedy", "bogus"]))
    argv = [command, *out]
    for option in options:
        argv += draw(option)
    if command == "verify" and "--claims" not in argv:
        argv += ["--claims", "Obs3.1"]  # one cheap claim
    return argv + draw(_graph_file(tmp_path))


class TestCli:
    def test_gen_build_stats_roundtrip(self, tmp_path):
        gfile = tmp_path / "d3.txt"
        assert main(["gen", "dipole", "3", "--out", str(gfile)]) == 0
        out = tmp_path / "l1.json"
        assert main(["build", "--ell", "1", "--out", str(out), str(gfile)]) == 0
        data = json.loads(out.read_text())
        assert len(data["vertices"]) == 3 and len(data["edges"]) == 6
        sfile = tmp_path / "stats.json"
        assert main(["stats", "--ell", "0..2", "--out", str(sfile), str(gfile)]) == 0
        stats = json.loads(sfile.read_text())
        assert stats["degeneracy"] == 3 and stats["girth"] == "2"

    def test_color_recursive_k5(self, tmp_path):
        gfile = tmp_path / "k5.txt"
        main(["gen", "complete", "5", "--out", str(gfile)])
        out = tmp_path / "col.json"
        rc = main(["color", "--method", "recursive", "--ell", "4",
                   "--out", str(out), str(gfile)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["colors"] <= 3 and data["proper"]

    def test_color_recursive_builds_the_top_graph_once(self, monkeypatch, tmp_path):
        gfile = tmp_path / "petersen.txt"
        main(["gen", "petersen", "--out", str(gfile)])
        built = []
        real = construction._windows_graph

        def counting(G, ell, levels):
            built.append(ell)
            return real(G, ell, levels)

        monkeypatch.setattr(construction, "_windows_graph", counting)
        monkeypatch.setattr(coloring, "_windows_graph", counting)
        out = tmp_path / "col.json"
        assert main(["color", "--method", "recursive", "--ell", "4",
                     "--out", str(out), str(gfile)]) == 0
        # the base graph, then the top graph, which the output reads
        assert built == [0, 4]
        data = json.loads(out.read_text())
        assert data["colors"] == 3 and data["proper"] and len(data["assignment"]) == 120

    def test_minor_command(self, tmp_path):
        gfile = tmp_path / "w5.txt"
        main(["gen", "wheel", "5", "--out", str(gfile)])
        out = tmp_path / "minor.json"
        assert main(["minor", "--ell", "1", "--out", str(out), str(gfile)]) == 0
        data = json.loads(out.read_text())
        assert data["bound"] >= 5

    def test_minor_uses_the_hadwiger_cap(self, monkeypatch, tmp_path):
        gfile = tmp_path / "d3.txt"
        main(["gen", "dipole", "3", "--out", str(gfile)])
        seen = []
        real = cli.hadwiger_lower_bound

        def spy(*args, **kwargs):
            seen.append(kwargs["eta_cap"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "hadwiger_lower_bound", spy)
        out = str(tmp_path / "minor.json")
        assert main(["minor", "--ell", "1", "--out", out, str(gfile)]) == 0
        assert main(["minor", "--ell", "1", "--hadwiger-cap", "7", "--out", out, str(gfile)]) == 0
        assert seen == [Caps().hadwiger_cap, 7]
        # `minor` never colours, so the colouring cap is a usage error there
        with pytest.raises(SystemExit) as exc:
            main(["minor", "--ell", "1", "--oracle-cap", "30", "--out", out, str(gfile)])
        assert exc.value.code == 2
        assert seen == [Caps().hadwiger_cap, 7]

    def test_verify_passes_the_colouring_cap(self, monkeypatch, tmp_path):
        gfile = tmp_path / "d3.txt"
        main(["gen", "dipole", "3", "--out", str(gfile)])
        seen = []
        real = cli.verify_suite

        def spy(**kwargs):
            seen.append(kwargs["caps"])
            return real(**kwargs)

        monkeypatch.setattr(cli, "verify_suite", spy)
        out = str(tmp_path / "report.json")
        base = ["verify", "--claims", "Obs3.3", "--ell", "1", "--out", out]
        assert main(base + [str(gfile)]) == 0
        assert main(base + ["--oracle-cap", "30", str(gfile)]) == 0
        assert [(c.chromatic_cap, c.hadwiger_cap) for c in seen] == [
            (Caps().chromatic_cap, Caps().hadwiger_cap), (30, Caps().hadwiger_cap)
        ]

    def test_verify_honours_a_zero_colouring_cap(self, tmp_path):
        gfile = tmp_path / "c4.txt"
        main(["gen", "cycle", "4", "--out", str(gfile)])
        out = tmp_path / "report.json"
        assert main(["verify", "--claims", "Thm1.3", "--ell", "2", "--oracle-cap", "0",
                     "--out", str(out), str(gfile)]) == 0
        # the oracle decides nothing; a certificate decides the record
        assert [(r["status"], r["detail"]) for r in json.loads(out.read_text())["records"]] == [
            ("pass", "certificate: chi <= 2 <= 3")]

    def test_verify_subcommand(self, tmp_path):
        gfile = tmp_path / "k4.txt"
        main(["gen", "complete", "4", "--out", str(gfile)])
        out = tmp_path / "report.json"
        rc = main(["verify", "--claims", "Obs3.1", "--ell", "1..4",
                   "--out", str(out), str(gfile)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert all(r["status"] != "fail" for r in data["records"])
        assert any(r["status"] == "pass" for r in data["records"])

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["build"])  # missing graph argument
        assert exc.value.code == 2

    def test_build_kind_iterated_is_rejected(self, tmp_path):
        gfile = tmp_path / "d2.txt"
        main(["gen", "dipole", "2", "--out", str(gfile)])
        with pytest.raises(SystemExit) as exc:
            main(["build", "--kind", "iterated", "--ell", "1", str(gfile)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args, text", [
        (["build", "--ell", "x"], "argument --ell: expected a length or lo..hi, got 'x'"),
        (["build", "--ell", "1..x"], "argument --ell: expected a length or lo..hi, got '1..x'"),
        (["build", "--ell", "3..1"], "argument --ell: empty range '3..1'"),
        (["build", "--limit", "-5"], "argument --limit: expected an integer >= 0, got '-5'"),
        (["color", "--oracle-cap", "-1"],
         "argument --oracle-cap: expected an integer >= 0, got '-1'"),
        (["minor", "--hadwiger-cap", "-2"],
         "argument --hadwiger-cap: expected an integer >= 0, got '-2'"),
    ])
    def test_bad_options_are_usage_errors(self, args, text, tmp_path, capsys):
        gfile = tmp_path / "c4.txt"
        main(["gen", "cycle", "4", "--out", str(gfile)])
        with pytest.raises(SystemExit) as exc:
            main([*args, str(gfile)])
        assert exc.value.code == 2
        assert text in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        ("build", ["--oracle-cap", "30"]),
        ("stats", ["--oracle-cap", "30"]),
        ("stats", ["--format", "dot"]),
        ("color", ["--format", "dot"]),
        ("minor", ["--format", "dot"]),
    ])
    def test_an_option_the_command_ignores_is_a_usage_error(self, command, option, tmp_path,
                                                            capsys):
        gfile = tmp_path / "c4.txt"
        main(["gen", "cycle", "4", "--out", str(gfile)])
        with pytest.raises(SystemExit) as exc:
            main([command, str(gfile), *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert main([command, "--out", str(tmp_path / "out"), str(gfile)]) == 0

    def test_a_negative_window_is_a_usage_error(self, tmp_path, capsys):
        gfile = tmp_path / "c4.txt"
        main(["gen", "cycle", "4", "--out", str(gfile)])
        assert main(["build", "--ell", "-1", str(gfile)]) == 2
        assert capsys.readouterr().err == "error: ell must be >= 0, got -1\n"

    @pytest.mark.parametrize("name, content, text", [
        ("missing.txt", None, "No such file or directory"),
        ("adir", "dir", "Is a directory"),
        ("bad.txt", b"a b\n\xff c\n", "line 2: not UTF-8"),
    ])
    def test_unreadable_input_is_a_usage_error(self, name, content, text, tmp_path, capsys):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        assert main(["build", "--ell", "1", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err

    def test_output_into_a_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        gfile = tmp_path / "c4.txt"
        main(["gen", "cycle", "4", "--out", str(gfile)])
        out = tmp_path / "missing" / "report.json"
        assert main(["verify", "--claims", "Obs3.1", "--ell", "1", "--out", str(out), str(gfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err

    @pytest.mark.parametrize("command", ["build", "color", "minor"])
    def test_a_range_of_lengths_is_a_usage_error(self, command, tmp_path, capsys):
        gfile = tmp_path / "c4.txt"
        main(["gen", "cycle", "4", "--out", str(gfile)])
        assert main([command, "--ell", "1..3", str(gfile)]) == 2
        assert capsys.readouterr().err == "error: --ell takes one length here, got 1..3\n"
        # a range of one length is that length
        assert main([command, "--ell", "2..2", "--out", str(tmp_path / "out"), str(gfile)]) == 0

    @pytest.mark.parametrize("argv, text", [
        (["complete"], "gen complete takes 1 integer parameter(s), got []"),
        (["complete", "4", "x"], "gen complete takes 1 integer parameter(s), got ['4', 'x']"),
        (["dipole", "3", "1"], "gen dipole takes 1 integer parameter(s), got ['3', '1']"),
        (["complete-bipartite", "x", "4"],
         "gen complete-bipartite takes 2 integer parameter(s), got ['x', '4']"),
        (["random", "1", "2"], "gen random takes 0 or 1 integer parameter(s), got ['1', '2']"),
        (["petersen", "3"], "gen petersen takes 0 integer parameter(s), got ['3']"),
        (["wheel", "2.5"], "gen wheel takes 1 integer parameter(s), got ['2.5']"),
        (["complete", "-3"], "complete needs n >= 1, got -3"),
    ])
    def test_a_wrong_generator_parameter_is_a_usage_error(self, argv, text, capsys):
        assert main(["gen", *argv]) == 2
        assert capsys.readouterr().err == f"error: {text}\n"

    def test_random_takes_an_optional_seed(self, capsys):
        assert main(["gen", "random"]) == 0
        assert capsys.readouterr().out == random_multigraph(0).serialize()
        assert main(["gen", "random", "7"]) == 0
        assert capsys.readouterr().out == random_multigraph(7).serialize()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_argv_exits_with_a_known_code(self, data, tmp_path, capsys):
        argv = data.draw(_argv(tmp_path))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code in ((0, 1, 2, 3) if argv[0] == "verify" else (0, 2, 3)), argv
        assert "Traceback" not in err
        if code == 3:
            assert set(json.loads(err)) == {"error", "detail"}

    def test_limit_error_exit_code(self, tmp_path):
        gfile = tmp_path / "pet.txt"
        main(["gen", "petersen", "--out", str(gfile)])
        rc = main(["build", "--ell", "5", "--limit", "10", str(gfile)])
        assert rc == 3

    def test_dot_output(self, tmp_path):
        gfile = tmp_path / "d2.txt"
        main(["gen", "dipole", "2", "--out", str(gfile)])
        out = tmp_path / "g.dot"
        main(["build", "--ell", "1", "--format", "dot", "--out", str(out), str(gfile)])
        assert out.read_text().startswith("graph")
