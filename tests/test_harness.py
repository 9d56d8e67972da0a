from __future__ import annotations

import json
from collections import Counter

import pytest

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
from linkgraphs.errors import LimitExceeded
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
)


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
        # link graphs only: Cor1.2 and ArcChrom colour other graphs
        counting("exact_chromatic",
                 lambda H, cap: (H.ell, H.to_json()) if isinstance(H, LabeledGraph) else None)
        counting("_lower_bound", lambda G, ell, *args: (G.serialize(), ell))
        verify_suite(corpus=self.CORPUS, claims=self.CLAIMS, caps=self.CAPS)
        assert {k[0] for k in calls} == {"hadwiger_number", "exact_chromatic", "_lower_bound"}
        assert max(calls.values()) == 1, [(k[0], c) for k, c in calls.items() if c > 1]

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

        def counting(name, length):
            real = getattr(harness, name)

            def wrapper(G, *args):
                calls[(name, G.serialize(), length(*args))] += 1
                return real(G, *args)

            monkeypatch.setattr(harness, name, wrapper)

        # every link graph is read off the one kernel of its instance
        counting("_arc_levels", lambda fwd, ell, top: top)
        counting("_windows_graph", lambda ell, windows: ell)
        counting("_base_coloring", lambda H, cap, solve_edge: H.ell)
        counting("_lifted", lambda below, H, middle: H.ell)
        counting("hub_subgraph", lambda ell, limit: ell)
        # the chromatic bounds of Thm1.1/1.2 read the link graphs of the run
        monkeypatch.setattr(coloring, "link_graph", None)
        monkeypatch.setattr(harness, "link_graph", None)
        report = verify_suite(corpus=small_corpus(), claims=self.CLAIMS, caps=self.CAPS)
        assert report.passed()
        built = {(G, ell) for name, G, ell in calls if name == "_windows_graph"}
        assert len(built) == 2 * len(self.CAPS.ell_range)
        hubs = {(G, ell) for name, G, ell in calls if name == "hub_subgraph"}
        assert hubs == built
        kernels = [(G, top) for name, G, top in calls if name == "_arc_levels"]
        assert sorted(kernels) == sorted((inst.graph.serialize(), max(self.CAPS.ell_range) + 1)
                                         for inst in small_corpus())
        assert {name for name, _, _ in calls} == {
            "_arc_levels", "_windows_graph", "_base_coloring", "_lifted", "hub_subgraph"}
        assert max(calls.values()) == 1, [k for k, c in calls.items() if c > 1]
        # Cor4.4 lifts to the top length on both instances
        assert ("_lifted", complete(4).serialize(), 5) in calls

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
        broken = link_graph(cycle(5), 1).to_multigraph().serialize()
        real = harness.hadwiger_number

        def oracle(G, cap):
            if G.serialize() == broken:
                raise RuntimeError("oracle crashed")
            return real(G, cap)

        monkeypatch.setattr(harness, "hadwiger_number", oracle)

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
            if isinstance(H, LabeledGraph) and H.source == cycle(5):
                return 1, Coloring({i: 0 for i in range(H.n)}, 1)
            if isinstance(H, LabeledGraph) and H.source == path(5):
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
