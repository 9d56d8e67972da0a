"""Span tracer for the benchmark's traced runs.

The tracer replaces each traced function of ``linkgraphs`` by a wrapper in
every namespace where callers look it up (the defining module, the modules
that import it by name, and the package itself), so a call from anywhere in
the program opens a span.  Spans ``(name, start, end, parent, outermost)``
are kept in memory and written out when the run ends; per-layer numbers are
computed from them afterwards.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter

LAYERS = ("multigraph", "links", "construction", "coloring", "canon", "minors", "harness")

# Predicates called once per link (about 160k calls per verify-structural
# pass).  Wrapping them would triple the tracer's overhead; their time counts
# as the self time of whichever traced function called them.
UNTRACED = {"links.is_path", "links.is_cycle", "links.validate_arc", "links.is_link_of"}

# Multigraph methods with their own per-layer metrics.
MULTIGRAPH_METHODS = ("degeneracy", "girth", "is_biconnected", "underlying_simple")


def route_metric(label):
    """Metric name of a minor route label (``+`` is not allowed in names)."""
    return f"minors.route.{label.replace('+', '_')}.wins"


def _graph_key(G):
    return (tuple(G.vertices), G.edges())


def _simple_edge_key(G):
    # the labelled simple edge set; the tracer never calls canon
    return (frozenset(G.vertices), frozenset(frozenset((u, v)) for _, u, v in G.edges()))


class Tracer:
    """In-memory spans plus the counters observed at the same boundaries."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.stack = [-1]
        self.depth = Counter()
        self.raised = Counter()
        self.counters = Counter()
        self.distinct = Counter()
        self._seen = {}

    # -- passes -----------------------------------------------------------------

    def begin_pass(self):
        self._seen = {}

    def end_pass(self):
        for name, keys in self._seen.items():
            self.distinct[name] += len(keys)

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name, fn, key=None, observe=None):
        tracer = self
        spans = self.spans
        stack = self.stack
        depth = self.depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if key is not None:
                tracer._seen.setdefault(name, set()).add(key(*args, **kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            outermost = depth[name] == 0
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, outermost)
            if observe is not None:
                observe(tracer.counters, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn):
        """Run ``fn`` inside a root span named ``name``."""
        return self.wrap(name, fn)()

    def install(self):
        """Wrap every traced function of the package where callers look it up."""
        import linkgraphs
        from linkgraphs.multigraph import Multigraph

        keys = {
            "links.enumerate_links": lambda G, ell, *a, **k: _graph_key(G) + (ell,),
            "minors.hadwiger_number": lambda G, *a, **k: _simple_edge_key(G),
        }
        observers = {
            "links.enumerate_links": _observe_links,
            "construction.link_graph": _observe_link_graph,
            "minors.hadwiger_lower_bound": _observe_lower_bound,
            "harness.verify_suite": _observe_report,
        }
        replace = {}
        for layer in LAYERS:
            module = sys.modules[f"linkgraphs.{layer}"]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    replace[id(value)] = self.wrap(
                        name, value, keys.get(name), observers.get(name)
                    )
        namespaces = [linkgraphs] + [sys.modules[f"linkgraphs.{m}"] for m in LAYERS]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in replace and isinstance(value, types.FunctionType):
                    setattr(ns, attr, replace[id(value)])
        for attr in MULTIGRAPH_METHODS:
            setattr(Multigraph, attr, self.wrap(f"multigraph.{attr}", getattr(Multigraph, attr)))

    # -- results ----------------------------------------------------------------

    def aggregate(self):
        """Per-function ``calls``, ``busy_s`` (outermost spans) and ``self_s``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for idx, (name, start, end, parent, outermost) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            if outermost:
                s["busy_s"] += end - start
            s["self_s"] += end - start - child[idx]
        return stats

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "names": names,
                    "spans": [
                        [ids[n], round(a - t0, 7), round(b - t0, 7), p]
                        for n, a, b, p, _ in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def _observe_links(counters, links):
    counters["links.links_enumerated"] += len(links)


def _observe_link_graph(counters, H):
    counters["construction.link_graph.edges_built"] += H.m


def _observe_lower_bound(counters, res):
    counters[route_metric(res.route)] += 1
    counters["minors.route_notes"] += len(res.notes)


def _observe_report(counters, report):
    for rec in report.records:
        counters[f"harness.records.{rec.status}"] += 1
