"""Benchmark of linkgraphs: closed-loop workloads with end-to-end and per-layer metrics.

Run one workload (the last line of output is the JSON result)::

    python3 bench/run.py --workload verify-structural --seed 1 --seconds 40 --trace 0

Run every workload, each in its own process, and print a table::

    python3 bench/run.py --seconds 40

With ``--trace 1`` the run reports per-layer metrics from spans recorded
around the calls into each module (see ``bench/tracer.py``); the end-to-end
metrics come from untraced runs.  See ``bench/README.md`` for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("verify-structural", "verify-minors", "large-ell")
SETUP_CHILDREN = 4

# (name, unit, better); BENCHMARK.json lists the same metrics.  Times are at
# the reference machine speed (see speed.py); the detail line has them raw.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "share", "higher"),
    ("decided_share", "share", "higher"),
]
# Printed on the detail line and in the table, but not bounded: with two to
# four passes a run, its spread between runs reached 0.15 on large-ell.
LATENCY = [("op_tail_ms", "ms")]
# The same times as measured, before scaling to the reference machine speed.
RAW = [("setup_raw_s", "s"), ("wall_raw_s", "s"), ("op_p50_raw_ms", "ms"), ("op_tail_raw_ms", "ms")]

_FN_QUANTITIES = {"calls": "count", "busy_s": "s", "self_s": "s"}
PER_LAYER = [
    *[(f"links.enumerate_links.{q}", u) for q, u in _FN_QUANTITIES.items()],
    ("links.enumerate_links.limit_exceeded", "count"),
    ("links.enumerate_links.repeat_ratio", "ratio"),
    ("links.links_enumerated", "count"),
    *[(f"links.enumerate_arcs.{q}", u) for q, u in _FN_QUANTITIES.items()],
    ("links.one_step_shunts.calls", "count"),
    ("links.hub_subgraph.self_s", "s"),
    ("construction.link_graph.calls", "count"),
    ("construction.link_graph.self_s", "s"),
    ("construction.link_graph.edges_built", "count"),
    ("construction.link_graph.edges_per_s", "1/s"),
    ("construction.link_graph_connected.self_s", "s"),
    ("construction.verify_almost_standard.self_s", "s"),
    ("construction.path_graph.self_s", "s"),
    ("construction.digraph_natural_iso_check.self_s", "s"),
    ("coloring.exact_chromatic.calls", "count"),
    ("coloring.exact_chromatic.self_s", "s"),
    ("coloring.exact_chromatic.oracle_too_large", "count"),
    ("coloring.exact_edge_chromatic.self_s", "s"),
    ("coloring.chromatic_upper_bounds.self_s", "s"),
    ("coloring.recursive_chromatic_bound.self_s", "s"),
    ("coloring.reduce_coloring.self_s", "s"),
    ("canon.canonical_key.calls", "count"),
    ("canon.canonical_key.self_s", "s"),
    ("minors.hadwiger_number.calls", "count"),
    ("minors.hadwiger_number.self_s", "s"),
    ("minors.hadwiger_number.oracle_too_large", "count"),
    ("minors.hadwiger_number.distinct_inputs", "count"),
    ("minors.hadwiger_number.repeat_ratio", "ratio"),
    ("minors.hadwiger_model.self_s", "s"),
    ("minors.hadwiger_lower_bound.calls", "count"),
    ("minors.hadwiger_lower_bound.self_s", "s"),
    ("minors.hadwiger_lower_bound.limit_exceeded", "count"),
    *[(f"minors.route.{r}.wins", "count")
      for r in ("edge", "degeneracy", "cycle", "cut", "cut_cycle", "bipartite", "hub-lift")],
    ("minors.route_notes", "count"),
    ("minors.verify_minor.calls", "count"),
    ("minors.verify_minor.self_s", "s"),
    *[(f"multigraph.{m}.self_s", "s")
      for m in ("degeneracy", "girth", "is_biconnected", "underlying_simple")],
    ("harness.verify_suite.self_s", "s"),
    ("harness.records.pass", "count"),
    ("harness.records.fail", "count"),
    ("harness.records.skip", "count"),
    *[(f"{layer}.self_s", "s")
      for layer in ("multigraph", "links", "construction", "coloring", "canon", "minors",
                    "harness", "bench")],
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]
_HIGHER = {"construction.link_graph.edges_per_s", "harness.records.pass"}
PER_LAYER = [
    (name, unit, "higher" if name in _HIGHER or name.endswith(".wins") else "lower")
    for name, unit in PER_LAYER
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="run one workload; without it every workload runs in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measurement budget; whole passes run while the next one fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a few small inputs per workload, for the benchmark's tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up -----------------------------------------------------------------------


def set_up(name, seed, scale):
    """Import linkgraphs and generate the workload's inputs.

    Returns the raw seconds, the workload and its random generator."""
    start = time.perf_counter()
    import linkgraphs
    import workloads

    if not Path(linkgraphs.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"linkgraphs imported from {linkgraphs.__file__}, not {SRC}")
    rng = random.Random(seed)
    workload = workloads.make(name, rng, scale)
    return time.perf_counter() - start, workload, rng


def setup_samples(args):
    """(raw, scaled) set-up times of fresh processes, each importing and
    generating once."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        raw, scaled = done.stdout.split()[-2:]
        samples.append((float(raw), float(scaled)))
    return samples


# -- measurement --------------------------------------------------------------------


class PassResult:
    def __init__(self):
        self.latencies = {}  # op name -> seconds
        self.spans = []  # (start, end) of each operation, in order
        self.statuses = []
        self.failures = []  # (op name, kind, detail)
        self.wrong = 0

    @property
    def wall(self):
        """Time of the pass's operations; the checks between them are excluded."""
        return sum(self.latencies.values())

    def scaled(self, sampler):
        """Latencies at the reference machine speed, in operation order."""
        return [x * sampler.scale(a, b) for x, (a, b) in zip(self.latencies.values(), self.spans)]


def median_wall(passes, sampler=None):
    if sampler is None:
        return statistics.median(p.wall for p in passes)
    return statistics.median(sum(p.scaled(sampler)) for p in passes)


def run_pass(workload, rng, tracer, sampler):
    import workloads

    res = PassResult()
    clock = time.perf_counter
    for op in workload.pass_ops(rng):
        out = exc = reason = None
        # collect the previous operation's garbage outside the timed region
        gc.collect()
        if tracer is not None:
            tracer.active = True
        stolen = sampler.stolen
        start = clock()
        try:
            if tracer is not None:
                out = tracer.span("bench.op", op.run)
            else:
                out = op.run()
        except Exception as e:  # the run goes on; the failure is counted
            exc = e
        end = clock()
        elapsed = end - start - (sampler.stolen - stolen)
        res.spans.append((start, end))
        if tracer is not None:
            tracer.active = False
        res.latencies[op.name] = elapsed
        if exc is None:
            try:
                reason = op.check(out)
            except Exception as e:
                reason = f"check raised {type(e).__name__}: {e}"
            if reason is not None:
                res.wrong += 1
                res.failures.append((op.name, "WrongAnswer", reason))
        else:
            res.failures.append((op.name, type(exc).__name__, str(exc)[:200]))
        res.statuses.extend(workloads.op_statuses(op, out, exc, reason))
        out = None
    return res


def measure(workload, rng, seconds, sampler, tracer=None):
    """Run whole passes while one more of the slowest so far fits in ``seconds``.

    With a tracer, the first pass is untraced (the overhead reference) and at
    least one traced pass follows.
    """
    passes, traced = [], []
    start = time.perf_counter()
    durations = []
    while True:
        trace_this = tracer is not None and len(passes) >= 1
        t0 = time.perf_counter()
        if trace_this:
            tracer.begin_pass()
        p = run_pass(workload, rng, tracer if trace_this else None, sampler)
        if trace_this:
            tracer.end_pass()
        durations.append(time.perf_counter() - t0)
        (traced if trace_this else passes).append(p)
        if tracer is not None and not traced:
            continue
        if time.perf_counter() - start + max(durations) > seconds:
            return passes, traced


def tail_percentile(ops_per_pass):
    """Highest whole percentile with at least ten of one pass's operations
    beyond it (at least the median), so every run has ten samples beyond it."""
    return max(50, math.floor(100 - 1000 / ops_per_pass))


def percentile(values, pct):
    """Interpolated percentile, as ``statistics.quantiles(..., method="inclusive")``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes, setup, ops_per_pass, sampler):
    lat = sorted(x for p in passes for x in p.scaled(sampler))
    raw = sorted(x for p in passes for x in p.latencies.values())
    statuses = [s for p in passes for s in p.statuses]
    attempted = len(lat)
    failed = sum(len(p.failures) for p in passes)
    skips = statuses.count("skip")
    pct = tail_percentile(ops_per_pass)
    values = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "wall_s": median_wall(passes, sampler),
        "op_p50_ms": percentile(lat, 50) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1 - failed / attempted,
        "decided_share": 1 - skips / len(statuses) if statuses else 1.0,
    }
    tail_ms = percentile(lat, pct) * 1000
    detail = {
        "op_tail_ms": tail_ms,
        "op_tail_percentile": pct,
        "op_samples": attempted,
        "op_samples_beyond_tail": sum(1 for x in lat if x * 1000 > tail_ms),
        "setup_raw_s": statistics.median(r for r, _ in setup),
        "wall_raw_s": median_wall(passes),
        "op_p50_raw_ms": percentile(raw, 50) * 1000,
        "op_tail_raw_ms": percentile(raw, pct) * 1000,
        "reference_samples": len(sampler.samples),
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "op_median_ms": {op: statistics.median(p.latencies[op] for p in passes) * 1000
                         for op in passes[0].latencies},
        "error_share": failed / attempted,
        "skip_share": skips / len(statuses) if statuses else 0.0,
        "records": len(statuses),
        "setup_samples_s": setup,
    }
    return values, detail


def per_layer(tracer, traced, untraced, sampler):
    stats = tracer.aggregate()
    n = len(traced)
    counters = tracer.counters
    traced_wall = median_wall(traced, sampler)
    untraced_wall = median_wall(untraced, sampler)

    def stat(fn, q):
        return stats.get(fn, {}).get(q, 0.0)

    def raised(fn, exc):
        return tracer.raised[(fn, exc)]

    values = {}
    for name, _, _ in PER_LAYER:
        head, q = name.rsplit(".", 1)
        if name == "trace.wall_s":
            v = traced_wall
        elif name == "trace.untraced_wall_s":
            v = untraced_wall
        elif name == "trace.overhead_s":
            v = traced_wall - untraced_wall
        elif q == "self_s" and "." not in head:  # layer total
            v = sum(s["self_s"] for fn, s in stats.items() if fn.startswith(head + ".")) / n
        elif q in _FN_QUANTITIES:
            v = stat(head, q) / n
        elif q == "oracle_too_large":
            v = raised(head, "OracleTooLarge") / n
        elif q == "limit_exceeded":
            v = raised(head, "LimitExceeded") / n
        elif q == "repeat_ratio":
            distinct = tracer.distinct[head]
            v = stat(head, "calls") / distinct if distinct else 0.0
        elif q == "distinct_inputs":
            v = tracer.distinct[head] / n
        elif q == "edges_per_s":
            busy = stat(head, "busy_s")
            v = counters["construction.link_graph.edges_built"] / busy if busy else 0.0
        else:
            v = counters[name] / n
        values[name] = v
    detail = {
        "traced_passes": n,
        "spans": len(tracer.spans),
        "raised": {f"{fn}:{exc}": c for (fn, exc), c in sorted(tracer.raised.items())},
    }
    return values, detail


# -- entry points -----------------------------------------------------------------


def run_one(args):
    setup = setup_samples(args)
    seconds, workload, rng = set_up(args.workload, args.seed, args.scale)
    setup.append((seconds, seconds * speed.burst_scale()))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        passes, traced = measure(workload, rng, args.seconds, sampler, tracer)
    finally:
        sampler.stop()
    every = passes + traced
    values, detail = end_to_end(passes, setup, workload.ops_per_pass, sampler)
    attempted = sum(len(p.latencies) for p in every)
    failed = sum(len(p.failures) for p in every)
    correct = sum(p.wrong for p in every) == 0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    if tracer is not None:
        layer, trace_detail = per_layer(tracer, traced, passes, sampler)
        detail.update(trace_detail)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
    kinds = {}
    for p in every:
        for op_name, kind, reason in p.failures:
            kinds.setdefault(kind, []).append(op_name)
    detail["failures"] = {k: sorted(set(v)) for k, v in kinds.items()}
    detail["first_failure_reasons"] = sorted({f"{o}: {k}: {r}" for p in every
                                              for o, k, r in p.failures})[:8]
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Run each workload in its own process and print one table."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {done.returncode}\n{done.stderr.strip()[-2000:]}")
            status = 1
            continue
        detail = json.loads(lines[-2].split(" ", 1)[1])
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        rows.append((name, detail, result))
    for name, detail, result in rows:
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"{name}: {verdict}; {result['attempted']} operations, {result['failed']} failed, "
              f"{detail['passes']} untraced passes")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
        if not args.trace:
            for metric, unit in LATENCY + RAW:
                print(f"  {metric:48s} {detail[metric]:.6g} {unit}")
            print(f"  {'error_share':48s} {detail['error_share']:.6g} share")
            print(f"  {'skip_share':48s} {detail['skip_share']:.6g} share "
                  f"({detail['records']} records)")
            print(f"  op_tail_ms is p{detail['op_tail_percentile']} of {detail['op_samples']} "
                  f"operations ({detail['op_samples_beyond_tail']} beyond it)")
        for kind, ops in detail["failures"].items():
            print(f"  failed ({kind}): {', '.join(ops)}")
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "linkgraphs" / "__init__.py").is_file():
        print(f"error: no linkgraphs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        seconds, _, _ = set_up(args.workload, args.seed, args.scale)
        print(seconds, seconds * speed.burst_scale())
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
