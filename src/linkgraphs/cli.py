"""Command-line interface: build derived graphs, report statistics, colour,
find minor witnesses, and run the verification suites."""

from __future__ import annotations

import argparse
import json
import sys

from . import multigraph as mg
from .coloring import (
    Coloring,
    exact_chromatic,
    greedy_coloring,
    is_proper,
    recursive_chromatic_bound,
)
from .construction import arc_digraph, link_graph, link_graph_connected, path_graph
from .errors import InvalidParameter, LimitExceeded, LinkGraphError, OracleTooLarge
from .harness import ALL_CLAIMS, Caps, CorpusInstance, verify_suite
from .minors import hadwiger_lower_bound
from .multigraph import parse_edge_list

EXIT_USAGE = 2
EXIT_LIMIT = 3


def _load_graph(path):
    with open(path, "rb") as fh:
        return parse_edge_list(fh.read())


def _ells(text):
    """``--ell``: one length, or the lengths ``lo..hi`` inclusive."""
    lo, dots, hi = text.partition("..")
    try:
        ells = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a length or lo..hi, got {text!r}") from None
    if not ells:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return ells


def _one_ell(args):
    """The one length of ``--ell`` for the commands that take one."""
    if len(args.ell) > 1:
        raise InvalidParameter(
            f"--ell takes one length here, got {args.ell[0]}..{args.ell[-1]}")
    return args.ell[0]


def _count(text):
    """A limit or cap: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# each generator, with the numbers of integer parameters it takes
_GENERATORS = {
    "dipole": (mg.dipole, (1,)),
    "complete": (mg.complete, (1,)),
    "complete-bipartite": (mg.complete_bipartite, (2,)),
    "cycle": (mg.cycle, (1,)),
    "path": (mg.path, (1,)),
    "petersen": (mg.petersen, (0,)),
    "wheel": (mg.wheel, (1,)),
    "parallel-bridge": (mg.parallel_bridge, (0,)),
    "random": (lambda seed=0: mg.random_multigraph(seed), (0, 1)),
}


def _cmd_gen(args):
    name = args.name.replace("_", "-")
    if name not in _GENERATORS:
        raise LinkGraphError(f"unknown generator {args.name!r}")
    make, counts = _GENERATORS[name]
    try:
        params = [int(p) for p in args.params]
    except ValueError:
        params = None
    if params is None or len(params) not in counts:
        raise InvalidParameter(f"gen {name} takes {' or '.join(map(str, counts))} integer "
                               f"parameter(s), got {args.params}")
    _emit(make(*params).serialize(), args.out)
    return 0


def _cmd_build(args):
    ell = _one_ell(args)
    G = _load_graph(args.graph)
    if args.kind == "link":
        H = link_graph(G, ell, args.limit)
    elif args.kind == "path":
        H = path_graph(G, ell, args.limit)
    elif args.kind == "arc":
        A = arc_digraph(G, ell, args.limit)
        if args.format == "dot":
            _emit(A.to_dot(), args.out)
        else:
            _emit(A.to_json(), args.out)
        return 0
    else:
        raise LinkGraphError(f"unknown kind {args.kind!r}")
    if args.format == "dot":
        _emit(H.to_dot(), args.out)
    elif args.format == "edgelist":
        _emit(H.to_multigraph().serialize(), args.out)
    else:
        _emit(H.to_json(), args.out)
    return 0


def _cmd_stats(args):
    G = _load_graph(args.graph)
    data = {
        "vertices": G.n,
        "edges": G.m,
        "max_degree": G.max_degree(),
        "min_degree": G.min_degree(),
        "degeneracy": G.degeneracy(),
        "girth": str(G.girth()),
        "connected": G.is_connected(),
        "biconnected": G.is_biconnected(),
        "diameter": str(G.diameter()),
    }
    per_ell = {}
    for ell in args.ell:
        try:
            H = link_graph(G, ell, args.limit)
        except LimitExceeded as exc:
            per_ell[str(ell)] = {"skipped": str(exc)}
            continue
        degs = H.degrees()
        per_ell[str(ell)] = {
            "links": H.n,
            "link_graph_edges": H.m,
            "min_degree": min(degs, default=0),
            "max_degree": max(degs, default=0),
            "connected_bfs": H.is_connected(),
            "connected_hub_criterion": link_graph_connected(G, ell, args.limit),
        }
    data["link_graphs"] = per_ell
    _emit(json.dumps(data, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_color(args):
    ell = _one_ell(args)
    G = _load_graph(args.graph)
    if args.method == "recursive":
        rec = recursive_chromatic_bound(G, ell, args.oracle_cap, args.limit)
        H, col = rec.graph, rec.coloring
        result = {
            "method": "recursive",
            "colors": col.t,
            "exact_base": rec.exact_base,
            "base": rec.base_kind,
            "base_value": rec.base_value,
        }
    else:
        H = link_graph(G, ell, args.limit)
        if args.method == "exact":
            chi, col = exact_chromatic(H, args.oracle_cap)
        else:
            chi, colors = greedy_coloring(H.adjacency())
            col = Coloring(colors, chi)
        result = {"method": args.method, "colors": chi}
    result["proper"] = bool(H.n == 0 or is_proper(H, col))
    result["assignment"] = json.loads(col.to_json(H))
    _emit(json.dumps(result, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_minor(args):
    ell = _one_ell(args)
    G = _load_graph(args.graph)
    res = hadwiger_lower_bound(G, ell, eta_cap=args.hadwiger_cap, limit=args.limit)
    payload = json.loads(res.witness.to_json())
    payload["bound"] = res.bound
    payload["route"] = res.route
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_verify(args):
    caps = Caps(
        suite_links=Caps.suite_links if args.limit is None else args.limit,
        chromatic_cap=Caps.chromatic_cap if args.oracle_cap is None else args.oracle_cap,
        ell_range=tuple(args.ell),
    )
    if args.graph:
        corpus = [CorpusInstance(args.graph, _load_graph(args.graph))]
    else:
        corpus = None
    claims = args.claims.split(",") if args.claims else None
    report = verify_suite(corpus=corpus, claims=claims, caps=caps)
    _emit(report.to_json(), args.out)
    return 0 if report.passed() else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="linkgraphs",
        description="Link graphs of loopless multigraphs: construction, "
        "colouring and minors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        """The options of every command on one graph; each adds those it
        reads besides."""
        p.add_argument("--ell", type=_ells, default="1", help="window length, e.g. 2 or 0..5")
        p.add_argument("--limit", type=_count, default=None, help="link enumeration cap")
        p.add_argument("--out", default=None)
        p.add_argument("graph", help="edge-list file")

    p = sub.add_parser("gen", help="write a generator instance as an edge list")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("build", help="emit a derived graph")
    p.add_argument("--kind", choices=["link", "path", "arc"], default="link")
    p.add_argument("--format", choices=["json", "dot", "edgelist"], default="json")
    common(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("stats", help="counts, degrees, connectivity")
    common(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("color", help="colour a link graph")
    p.add_argument("--method", choices=["exact", "recursive", "greedy"], default="exact")
    p.add_argument("--oracle-cap", dest="oracle_cap", type=_count, default=64,
                   help="exact colouring oracle cap")
    common(p)
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("minor", help="verified clique-minor lower bound")
    common(p)
    p.add_argument("--hadwiger-cap", dest="hadwiger_cap", type=_count,
                   default=Caps.hadwiger_cap, help="exact Hadwiger oracle cap")
    p.set_defaults(fn=_cmd_minor)

    p = sub.add_parser("verify", help="run claim suites")
    p.add_argument("--claims", default=None, help=f"comma list from {ALL_CLAIMS}")
    p.add_argument("--ell", type=_ells, default="0..5")
    p.add_argument("--limit", type=_count, default=None)
    p.add_argument("--oracle-cap", dest="oracle_cap", type=_count, default=None,
                   help="exact colouring oracle cap")
    p.add_argument("--out", default=None)
    p.add_argument("graph", nargs="?", default=None)
    p.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LimitExceeded, OracleTooLarge) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        sys.stderr.write("\n")
        return EXIT_LIMIT
    except (LinkGraphError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
