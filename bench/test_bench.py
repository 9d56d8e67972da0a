"""Tests of the benchmark itself: tiny runs of every workload, the metric
names it prints, and negative controls for its correctness checks.

Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench_run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from linkgraphs import coloring, construction, harness, minors  # noqa: E402
from linkgraphs import multigraph as mg  # noqa: E402


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == bench_run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench_run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = bench_run.PER_LAYER if trace else bench_run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    detail = json.loads(lines[-2].split(" ", 1)[1])
    if workload == "large-ell":
        # the degeneracy route's arc cap: counted as a failed operation
        assert detail["failures"] == {"LimitExceeded": ["petersen@10:minor"]}
        assert result["failed"] >= 1
    else:
        assert result["failed"] == 0
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert 0 < result["metrics"]["ok_share"]["value"] <= 1
        assert 0 < result["metrics"]["op_p50_ms"]["value"] <= detail["op_tail_ms"]
        assert detail["op_samples_beyond_tail"] >= 1
        assert {"error_share", "skip_share"} <= set(detail)


def test_one_command_prints_every_workload():
    done = _run("--seconds", "1", "--scale", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    for name in bench_run.WORKLOAD_NAMES:
        assert f"{name}: correct;" in done.stdout
    for metric in [n for n, _, _ in bench_run.END_TO_END] + [n for n, _ in bench_run.LATENCY] + [
            "error_share", "skip_share"]:
        assert len(re.findall(rf"^  {re.escape(metric)} +[-+.e0-9]+ ", done.stdout, re.M)) == 3
    assert "failed (LimitExceeded): petersen@10:minor" in done.stdout


def test_same_seed_same_inputs():
    names = []
    for _ in range(2):
        w = workloads.make("large-ell", random.Random(9), "tiny")
        names.append([op.name for op in w.pass_ops(random.Random(4))])
    assert names[0] == names[1]


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "large-ell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- negative controls: each check must flag a broken output ---------------------


@pytest.fixture(scope="module")
def k4():
    G = mg.complete(4)
    return G, workloads.expected_counts(G, 2, None)


def test_check_flags_a_non_proper_colouring(k4):
    G, exp = k4
    rec = coloring.recursive_chromatic_bound(G, 2)
    assert workloads.check_coloring(rec, exp) is None
    constant = coloring.Coloring({i: 1 for i in range(rec.graph.n)}, 1)
    broken = coloring.RecursiveColoring(2, rec.graph, constant, rec.exact_base,
                                        rec.base_kind, rec.base_value)
    assert "not proper" in workloads.check_coloring(broken, exp)
    partial = coloring.Coloring({0: 1}, 1)
    broken = coloring.RecursiveColoring(2, rec.graph, partial, True, "chromatic", 1)
    assert "rejected" in workloads.check_coloring(broken, exp)


def test_check_flags_overlapping_branch_sets(k4):
    G, exp = k4
    res = minors.hadwiger_lower_bound(G, 2)
    assert workloads.check_minor(workloads.minor_output(res), exp) is None
    w = res.witness
    a = next(iter(w.branch_sets[0]))
    sets = [w.branch_sets[0], w.branch_sets[1] | {a}, *w.branch_sets[2:]]
    bad = minors.MinorWitness(w.target_size, w.target_edges, sets, w.connectors, w.host, w.route)
    broken = minors.LowerBoundResult(res.bound, bad, res.route, res.notes)
    assert "overlap" in workloads.check_minor(workloads.minor_output(broken), exp)


def test_check_flags_wrong_counts_and_connectivity(k4):
    G, exp = k4
    H = construction.link_graph(G, 2)
    assert workloads.check_build(H, exp) is None
    dropped = construction.LabeledGraph(H.ell, H.vertices, H.edges[:-1], H.source)
    assert "expected" in workloads.check_build(dropped, exp)
    wrong_closed = workloads.Expected(exp.n, exp.m, (exp.n, exp.m + 1))
    assert "closed form" in workloads.check_build(H, wrong_closed)
    assert workloads.check_stats((H, H.degrees(), True)) is None
    assert "BFS" in workloads.check_stats((H, H.degrees(), False))
    assert "degree" in workloads.check_stats((H, H.degrees()[1:], True))


def test_check_flags_fail_records_and_changed_records():
    inst = [i for i in harness.default_corpus() if i.name == "cycle(4)"]
    report = harness.verify_suite(corpus=inst, claims=["Obs3.1"])
    check = workloads.RecordCheck()
    assert check(report) is None
    assert check(report) is None
    report.records[0].detail += " (changed)"
    assert "differs" in check(report)
    report.records[0].status = "fail"
    assert "fail records" in check(report)
    assert workloads.check_battery([(3, "not proper")]) is not None


def test_a_wrong_answer_and_an_exception_are_counted_and_the_run_goes_on():
    def boom():
        raise RuntimeError("not a limit")

    ops = [
        workloads.Op("wrong", lambda: 1, lambda out: "deliberately wrong"),
        workloads.Op("raises", boom, lambda out: None),
        workloads.Op("fine", lambda: 2, lambda out: None),
    ]
    res = bench_run.run_pass(workloads.Workload([[op] for op in ops]), random.Random(0), None,
                             speed.SpeedSampler())
    assert res.wrong == 1
    assert sorted((name, kind) for name, kind, _ in res.failures) == [
        ("raises", "RuntimeError"), ("wrong", "WrongAnswer")]
    assert len(res.latencies) == 3
    assert sorted(res.statuses) == ["fail", "fail", "pass"]
