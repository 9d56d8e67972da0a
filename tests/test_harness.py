from __future__ import annotations

import json

import pytest

from linkgraphs.cli import main
from linkgraphs.harness import (
    ALL_CLAIMS,
    Caps,
    CorpusInstance,
    default_corpus,
    negative_controls,
    verify_suite,
)
from linkgraphs.multigraph import Multigraph, complete, cycle, dipole


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
