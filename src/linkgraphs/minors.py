"""Minor witnesses in link graphs: verified branch-set models built from
cuts, cycles, degeneracy cores and the hub subgraph, plus exact oracles."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .construction import LabeledGraph, _components, index_adjacency, link_graph, reachable
from .errors import (
    BranchSetLacksLink,
    InvalidParameter,
    LinkGraphError,
    NoCycleInY,
    NoEdge,
    OracleTooLarge,
    PreconditionViolated,
    WitnessInvalid,
)
from .links import (
    Arc,
    Link,
    _arcs,
    _counted,
    _link_cap,
    _shunt_steps,
    _walk_arcs,
    enumerate_links,
    has_arc,
    hub_subgraph,
    validate_arc,
)
from .multigraph import Multigraph, complete_bipartite

DEFAULT_HADWIGER_CAP = 12
# the cut-candidate route: balls kept, and the largest cuts among them tried
_MAX_CANDIDATES, _TRIES = 200, 12


# -- witnesses ----------------------------------------------------------------


class _LinkHost:
    """The ``ell``-link graph of ``G``, ``ell >= 1``, as a witness host with
    nothing built: ``n`` and ``m`` come from the arc counts, a link gets its
    vertex id on its first lookup, and ``host[i]`` is the set of ids of the
    one-step shunts of vertex ``i``, which are exactly its neighbours.  Ids
    are kept, and looked up, by canonical unit tuple; a shunt's link is read off
    ``links._shunt_steps`` as one, so a ``Link`` is made only for a new id.

    ``vertices[i]`` is the link of vertex ``i``.  ``len(host)`` is ``n``, so
    ``index_adjacency`` passes the host through and ``verify_minor`` reads it
    as a list of neighbour sets.  It checks the caps ``link_graph`` checks,
    and raises what it raises."""

    def __init__(self, G, ell, limit=None):
        totals, self._fwd = _counted(G, {L: _link_cap(L, limit) for L in (ell, ell + 1)})
        self.G, self.ell = G, ell
        self.n, self.m = _arcs(totals, ell) // 2, _arcs(totals, ell + 1) // 2
        self.vertices, self._ids, self._adj = [], {}, {}

    def __len__(self):
        return self.n

    def _id(self, units):
        i = self._ids.setdefault(units, len(self.vertices))
        if i == len(self.vertices):
            self.vertices.append(Link(units))
        return i

    def _lookup(self, units):
        """The vertex id of the link with unit tuple ``units``; ``KeyError``
        when it is not an ``ell``-link of ``G`` in its canonical orientation."""
        i = self._ids.get(units)
        if i is None:
            if (len(units) != 2 * self.ell + 1 or units > units[::-1]
                    or not validate_arc(self.G, Arc(units))):
                raise KeyError(units)
            i = self._id(units)
        return i

    def __getitem__(self, i):
        """The neighbour ids of vertex ``i``; none for an id no link has."""
        if i not in self._adj:
            if not 0 <= i < len(self.vertices):
                return frozenset()
            steps = _shunt_steps(self.G, self.vertices[i].units)
            self._adj[i] = {self._id(r) for _, r in steps}
        return self._adj[i]

    def first_edge(self):
        """The ends of the link graph's first edge in canonical order, as
        ``link_graph`` stores it first: the least link with a one-step shunt,
        and its least neighbour."""
        for units in _walk_arcs(self.G, self.ell, self._fwd):
            if units <= units[::-1]:
                steps = _shunt_steps(self.G, units)
                if steps:
                    return self._id(units), self._id(min(r for _, r in steps))


@dataclass
class MinorWitness:
    """Branch sets plus connecting paths certifying a minor model.

    ``connectors`` maps sorted target-edge pairs to host vertex paths whose
    first and last vertices lie in the respective branch sets and whose
    interiors avoid every branch set and every other interior.  The host is
    a ``LabeledGraph``, a ``Multigraph``, or the link host of
    ``hadwiger_lower_bound`` (``n``, ``m``, ``host[i]`` the neighbour ids of
    vertex ``i`` and ``host.vertices[i]`` its link); ``to_json`` labels each
    vertex by its name in ``vertices``.
    """

    target_size: int
    target_edges: frozenset  # pairs (i, j), i < j
    branch_sets: list  # list of frozenset of host vertex indices
    connectors: dict  # (i, j) -> tuple of host vertex indices
    host: object = field(default=None, repr=False)
    route: str = ""

    @property
    def target_name(self):
        full = {(i, j) for i in range(self.target_size) for j in range(i + 1, self.target_size)}
        if self.target_edges == frozenset(full):
            return f"K_{self.target_size}"
        return f"graph({self.target_size},{len(self.target_edges)})"

    def to_json(self):
        def label(i):
            if isinstance(self.host, (LabeledGraph, Multigraph, _LinkHost)):
                return str(self.host.vertices[i])
            return str(i)

        data = {
            "target": self.target_name,
            "branch_sets": [sorted(label(i) for i in bs) for bs in self.branch_sets],
            "connectors": {
                f"{i}-{j}": [label(v) for v in path]
                for (i, j), path in sorted(self.connectors.items())
            },
        }
        if self.target_name.startswith("graph("):
            data["target_edges"] = sorted(list(e) for e in self.target_edges)
        return json.dumps(data, indent=2, sort_keys=True)


@dataclass
class VerifyResult:
    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


def verify_minor(host, witness):
    """Structurally check every invariant of a witness; never raises."""
    adj = index_adjacency(host)
    n = len(adj)
    sets = witness.branch_sets
    if len(sets) != witness.target_size:
        return VerifyResult(False, "branch set count differs from target size")
    seen = set()
    for k, bs in enumerate(sets):
        if not bs:
            return VerifyResult(False, f"branch set {k} is empty")
        for v in bs:
            if not (0 <= v < n):
                return VerifyResult(False, f"branch set {k} has vertex {v} out of range")
            if v in seen:
                return VerifyResult(False, f"branch sets overlap at {v}")
            seen.add(v)
        if reachable(adj, [next(iter(bs))], bs) != set(bs):
            return VerifyResult(False, f"branch set {k} is not connected")
    all_branch = seen
    interiors = set()
    for i, j in witness.target_edges:
        if not 0 <= i < j < witness.target_size:
            return VerifyResult(False, f"target edge {i}-{j} is not a pair of branch sets i < j")
        path = witness.connectors.get((i, j))
        if path is None:
            return VerifyResult(False, f"no connector for target edge {i}-{j}")
        if len(path) < 2:
            return VerifyResult(False, f"connector {i}-{j} too short")
        if path[0] not in sets[i] or path[-1] not in sets[j]:
            return VerifyResult(False, f"connector {i}-{j} endpoints misplaced")
        if len(set(path)) != len(path):
            return VerifyResult(False, f"connector {i}-{j} repeats a vertex")
        for a, b in zip(path, path[1:]):
            if b not in adj[a]:
                return VerifyResult(False, f"connector {i}-{j} uses a non-edge")
        inner = path[1:-1]
        for v in inner:
            if v in all_branch:
                return VerifyResult(False, f"connector {i}-{j} interior hits a branch set")
            if v in interiors:
                return VerifyResult(False, f"connector {i}-{j} interior shared")
        interiors.update(inner)
    for (i, j) in witness.connectors:
        if (i, j) not in witness.target_edges:
            return VerifyResult(False, f"connector {i}-{j} has no target edge")
    return VerifyResult(True, "")


def _checked(host, witness, what):
    """``witness`` once ``verify_minor`` accepts it; ``WitnessInvalid`` otherwise.
    A plain ``if``, so the gate holds under ``python -O``."""
    check = verify_minor(host, witness)
    if not check.ok:
        raise WitnessInvalid(f"{what} failed verification: {check.reason}")
    return witness


def _complete_edges(t):
    return frozenset((i, j) for i in range(t) for j in range(i + 1, t))


def _k2(a, b, host, route):
    """The K_2 on the adjacent vertices ``a`` and ``b`` of ``host``."""
    return MinorWitness(2, _complete_edges(2), [frozenset({a}), frozenset({b})],
                        {(0, 1): (a, b)}, host, route)


# -- exact oracles ------------------------------------------------------------


def _rows(adj, verts):
    """Neighbour bitmasks and edge count of the graph with index adjacency
    ``adj`` on ``verts``, a vertex set that no edge leaves, renumbered in the
    order of ``verts``."""
    pos = {v: k for k, v in enumerate(verts)}
    rows = tuple(sum(1 << pos[w] for w in adj[v]) for v in verts)
    return rows, sum(map(int.bit_count, rows)) // 2


def _max_clique_vertices(rows):
    """One maximum clique of the graph with neighbour bitmasks ``rows``,
    deterministic, for few vertices."""
    best = []

    def expand(clique, cands):
        nonlocal best
        if len(clique) + len(cands) <= len(best):
            return
        if not cands:
            if len(clique) > len(best):
                best = list(clique)
            return
        for v in list(cands):
            row = rows[v]
            expand(clique + [v], [c for c in cands if c > v and row >> c & 1])
            cands.remove(v)
            if len(clique) + len(cands) <= len(best):
                return

    expand([], list(range(len(rows))))
    return best


def _merge(rows, i, j):
    """Contract vertex ``j`` into ``i < j`` of a graph given by neighbour
    bitmasks; vertices above ``j`` move down by one."""
    low = (1 << j) - 1
    out = []
    for v, row in enumerate(rows):
        if v == j:
            continue
        if v == i:
            row |= rows[j]
        out.append((row & low) | (row >> (j + 1) << j) | ((row >> j & 1) << i))
    out[i] &= ~(1 << i)
    return tuple(out)


def _contracts_to(rows, m, t, failed):
    """Whether the connected simple graph with neighbour bitmasks ``rows`` and
    ``m`` edges contracts to K_t.

    A K_t model in a connected graph grows to cover every vertex, so
    contractions alone reach K_t, and such a model needs ``n - t`` edges
    inside its branch sets plus ``t(t-1)/2`` between them.  ``failed`` holds
    graphs already known to have no K_t minor (nor, then, any larger one).

    Only the edges of one vertex are branched on when that is enough.  Let v
    be a vertex of least degree, the least index on ties.  If deg(v) < t - 1,
    {v} cannot be a branch set of a covering model, which needs a neighbour
    in each of the t - 1 other sets; so v's branch set, being connected, also
    holds a neighbour u, and contracting uv first leaves a covering K_t model.
    Trying v's edges alone then misses no model, and each ``failed`` entry
    still proves "no K_t minor".  Otherwise every edge i < j is tried."""
    n = len(rows)
    spare = t * (t - 1) // 2 - t  # a covering model on n vertices needs spare + n edges
    if n < t or spare + n > m:
        return False
    if 2 * m == n * (n - 1):
        return True
    if rows in failed:
        return False
    degs = list(map(int.bit_count, rows))
    low = min(degs)
    if low < t - 1:
        v = degs.index(low)
        row = rows[v]
        edges = [(u, v) if u < v else (v, u) for u in range(n) if row >> u & 1]
    else:
        edges = ((i, j) for i, row in enumerate(rows) for j in range(i + 1, n) if row >> j & 1)
    for i, j in edges:
        # contracting ij loses ij and one edge per common neighbour
        left = m - 1 - (rows[i] & rows[j]).bit_count()
        if spare + n - 1 <= left and _contracts_to(_merge(rows, i, j), left, t, failed):
            return True
    failed.add(rows)
    return False


def hadwiger_number(G, cap=DEFAULT_HADWIGER_CAP):
    """Largest clique minor order, by a decision search with edge-count
    pruning, one connected component at a time.  Parallel edges are collapsed
    first.

    From the larger of the clique number and the best order found so far, the
    search asks for K_{t+1}, K_{t+2}, ... until the answer is no.  Only
    failures are memoised, under the raw graph (its tuple of neighbour
    bitmasks), not a canonical form; one set serves every target, since a
    graph without a K_t minor has no larger one.  A node whose vertex v of
    least degree has deg(v) < t - 1 branches only on v's edges: {v} alone
    cannot be a branch set of a covering K_t model, so v's branch set holds a
    neighbour u, and contracting uv first keeps the model
    (``_contracts_to``)."""
    return _hadwiger(index_adjacency(G), cap)


def _hadwiger(adj, cap):
    """``hadwiger_number`` of the graph with index adjacency ``adj``."""
    n = len(adj)
    if cap is not None and n > cap:
        raise OracleTooLarge(n, cap)
    best = min(n, 1)
    failed = set()
    for comp in _components(adj):
        rows, m = _rows(adj, comp)
        t = max(best, len(_max_clique_vertices(rows))) + 1
        while _contracts_to(rows, m, t, failed):
            t += 1
        best = t - 1
    return best


def hadwiger_model(G, cap=DEFAULT_HADWIGER_CAP):
    """An explicit clique-minor model achieving the Hadwiger number.

    Returns ``(eta, branch_sets)`` with branch sets of original vertex names.
    """
    eta = hadwiger_number(G, cap)
    return eta, _model_of_order(G, eta)


def _model_of_order(G, eta):
    """Branch sets of a K_eta model in G, where eta is G's Hadwiger number.

    A depth-first search over contractions on neighbour bitmasks: the edges
    i < j are tried in ascending order, j is merged into i (``_merge``), and
    the first graph met with a clique of order eta gives the model, each
    branch set the vertices merged into one clique vertex.  Failures are
    memoised under the raw tuple of bitmasks.  A model of a connected graph
    grows to cover every vertex, so a connected graph with fewer than
    ``eta(eta-1)/2 - eta + n`` edges has none (as in ``_contracts_to``);
    contraction keeps a graph connected, and a disconnected input is searched
    without this prune.  Pruned and memoised graphs hold no model, so the
    search meets the same first model as one that expands every contraction.
    """
    adj = index_adjacency(G)
    spare = eta * (eta - 1) // 2 - eta  # a covering model on n vertices needs spare + n edges
    prune = len(_components(adj)) <= 1
    failed = set()

    def dfs(rows, m, labels):
        n = len(rows)
        if rows in failed:
            return None
        clique = _max_clique_vertices(rows)
        if len(clique) >= eta:
            return [labels[v] for v in clique[:eta]]
        if n <= eta:
            return None
        for i, row in enumerate(rows):
            for j in range(i + 1, n):
                if not row >> j & 1:
                    continue
                # contracting ij loses ij and one edge per common neighbour
                left = m - 1 - (row & rows[j]).bit_count()
                if prune and spare + n - 1 > left:
                    continue
                merged = labels[:j] + labels[j + 1:]
                merged[i] = labels[i] | labels[j]
                res = dfs(_merge(rows, i, j), left, merged)
                if res is not None:
                    return res
        failed.add(rows)
        return None

    model = dfs(*_rows(adj, range(len(adj))), [frozenset({v}) for v in G.vertices])
    if model is None:
        raise WitnessInvalid(f"no K_{eta} model found; the search disagrees with the oracle")
    return model


# -- cut instances and the two cut constructions -------------------------------


@dataclass
class CutInstance:
    """A vertex set of small diameter whose complement is connected."""

    graph: Multigraph
    x_vertices: frozenset

    def __post_init__(self):
        self.x_vertices = frozenset(self.x_vertices)

    def x_subgraph(self):
        return self.graph.induced_subgraph(self.x_vertices)

    def y_subgraph(self):
        rest = [v for v in self.graph.vertices if v not in self.x_vertices]
        return self.graph.induced_subgraph(rest)

    def cut_arcs(self):
        """Sorted arcs ``(y, e, x)`` from the complement into the set."""
        out = []
        for eid, u, v in self.graph.edges():
            if (u in self.x_vertices) != (v in self.x_vertices):
                x, y = (u, v) if u in self.x_vertices else (v, u)
                out.append(Arc((y, eid, x)))
        return sorted(out, key=lambda a: a.units[1])

    def validate(self, ell):
        if not self.x_vertices:
            raise PreconditionViolated("the cut set is empty")
        missing = [v for v in self.x_vertices if not self.graph.has_vertex(v)]
        if missing:
            raise PreconditionViolated(f"unknown vertices {missing}")
        X = self.x_subgraph()
        if X.diameter() >= ell:
            raise PreconditionViolated(
                f"cut set diameter {X.diameter()} is not below {ell}"
            )
        Y = self.y_subgraph()
        if Y.n == 0 or not Y.is_connected():
            raise PreconditionViolated("complement is empty or disconnected")
        return X, Y


def shortest_cycle_arc(G):
    """A shortest cycle as a closed Arc, or None for forests."""
    units = G.shortest_cycle()
    return None if units is None else Arc(units)


def _windows(walk, ell):
    """The ``ell``-windows of the walk with unit tuple ``walk``, from its
    start on, each as the canonical unit tuple of its link: the links of
    ``shunt_trace(Arc(walk), ell).images``."""
    out = []
    for k in range(0, len(walk) - 2 * ell, 2):
        w = walk[k : k + 2 * ell + 1]
        out.append(min(w, w[::-1]))
    return out


def _ending_at(closed, p, ell):
    """The unit tuple of the ``ell`` darts of the closed walk ``closed`` that
    end at its position ``p``, wrapping round it as often as needed."""
    c = len(closed) // 2
    k = ell // c + 1
    end = 2 * (p + c * k)
    walk = closed[:-1] * (k + 1) + closed[-1:]
    return walk[end - 2 * ell : end + 1]


def _cycle_links(closed, ell):
    """The ``ell``-links, ``ell >= 1``, of the cycle that the closed walk
    ``closed`` (a unit tuple) goes round once, as canonical unit tuples: the
    windows of the walk, in the order a walk over the cycle's own link graph
    visits them, from the least link on through its lesser neighbour.
    Windows at consecutive starts are joined by the one-longer window, so
    that graph is a cycle through them in start order (for a digon, two
    links joined twice)."""
    c = len(closed) // 2
    walk = closed + closed[1:] * (ell // c + 1)
    links = _windows(walk[: 2 * (c + ell) - 1], ell)
    s = links.index(min(links))
    step = 1 if links[(s + 1) % c] < links[s - 1] else -1
    return [links[(s + step * k) % c] for k in range(c)]


def _x_paths(X, cut, ell):
    """Shortest walks inside the cut set between the heads of the cut arcs
    ``cut`` (unit tuples), by ordered pair of arc positions."""
    paths = {}
    t = len(cut)
    for i in range(t):
        for j in range(i, t):
            units = X.shortest_walk((cut[i][-1],), cut[j][-1])
            if units is None or len(units) // 2 > ell - 1:
                raise PreconditionViolated("attachment vertices too far apart")
            paths[(i, j)], paths[(j, i)] = units, units[::-1]
    return paths


def _branch_sets_and_connectors(H, ell, lbars, paths, t):
    """Branch set i: the windows of the last window ``lbars[i]`` into the cut
    set slid along each walk there; connector ij: the windows across the
    walk from i to j, entered and left through the cut arcs."""
    branch = []
    for i in range(t):
        links = {w for j in range(t) for w in _windows(lbars[i] + paths[(i, j)][1:], ell)}
        branch.append(frozenset(map(H._lookup, links)))
    connectors = {}
    for i in range(t):
        for j in range(i + 1, t):
            pij = paths[(i, j)]
            k = len(pij) - 1  # each last window less its first len(pij) // 2 darts
            walk = lbars[i][k:] + pij[1:] + lbars[j][k:][::-1][1:]
            connectors[(i, j)] = tuple(map(H._lookup, _windows(walk, ell)))
    return branch, connectors


def complete_minor_from_cut(G, ell, inst, H=None, limit=None):
    """Clique minor of order the cut size, grown from arcs into the cut set.

    One cycle per attachment threads the complement and re-enters through its
    own cut edge; sliding a window along it and onwards into the cut set gives
    the branch sets, and windows across the cut set give the connecting paths.
    """
    if ell < 1:
        raise PreconditionViolated(f"needs ell >= 1, got {ell}")
    X, Y = inst.validate(ell)
    cut = [arc.units for arc in inst.cut_arcs()]
    t = len(cut)
    if t < 2:
        raise PreconditionViolated(f"cut size {t} below 2")
    if H is None:
        H = link_graph(G, ell, limit)

    paths = _x_paths(X, cut, ell)

    def o_cycle(i):
        """The closed walk from the head of cut arc i to that of the next, out
        across its cut edge, through the complement, and in across cut arc i."""
        ip = (i + 1) % t
        back = Y.shortest_walk((cut[ip][0],), cut[i][0])
        return paths[(i, ip)] + cut[ip][-2::-1] + back[1:] + cut[i][1:]

    if t == 2:
        # the first edge of the link graph of the cycle o_cycle(0) goes round
        return _k2(*map(H._lookup, _cycle_links(o_cycle(0), ell)[:2]), H, "cycle")

    lbars = [_ending_at(o_cycle(i), 0, ell) for i in range(t)]
    branch, connectors = _branch_sets_and_connectors(H, ell, lbars, paths, t)
    witness = MinorWitness(t, _complete_edges(t), branch, connectors, H, "cut")
    return _checked(H, witness, "cut construction")


def complete_minor_with_cycle(G, ell, inst, H=None, limit=None):
    """Clique minor one larger than the cut size when the complement has a
    cycle; the cycle contributes an extra branch set adjacent to every other."""
    if ell < 1:
        raise PreconditionViolated(f"needs ell >= 1, got {ell}")
    X, Y = inst.validate(ell)
    cycle = Y.shortest_cycle()
    if cycle is None:
        raise NoCycleInY("the complement is a forest")
    cut = [arc.units for arc in inst.cut_arcs()]
    t = len(cut)
    if t < 1:
        raise PreconditionViolated("no edges leave the cut set")
    if H is None:
        H = link_graph(G, ell, limit)
    paths = _x_paths(X, cut, ell)

    into = {}  # per cycle vertex, the ell darts round the cycle into it, either way
    for closed in (cycle, cycle[::-1]):
        for p in range(len(cycle) // 2):
            into.setdefault(closed[2 * p], []).append(_ending_at(closed, p, ell))
    z_links = set(_cycle_links(cycle, ell))
    lbars, links = [], []  # per cut arc: its last window, its last two links
    for i in range(t):
        walk = Y.shortest_walk(cycle[0:-1:2], cut[i][0])
        if walk is None:
            raise WitnessInvalid("the complement does not reach the cut from its cycle")
        # the walk must not turn back along the last dart into its start
        last = next((w for w in into[walk[0]] if len(walk) == 1 or w[-2] != walk[1]), None)
        if last is None:
            raise WitnessInvalid("no valid window around the complement cycle")
        full = last + walk[1:] + cut[i][1:]
        wins = _windows(full, ell)
        z_links.update(wins[:-1])
        lbars.append(full[-2 * ell - 1 :])
        links.append((wins[-1], wins[-2]))

    branch, connectors = _branch_sets_and_connectors(H, ell, lbars, paths, t)
    branch.append(frozenset(map(H._lookup, z_links)))
    for i in range(t):
        connectors[(i, t)] = tuple(map(H._lookup, links[i]))
    witness = MinorWitness(t + 1, _complete_edges(t + 1), branch, connectors, H,
                           "cut+cycle")
    return _checked(H, witness, "cycle construction")


# -- bipartite clique minor -----------------------------------------------------


def _bipartite_model(a, b):
    """Branch sets and connectors of the ``K_d`` model of
    ``bipartite_clique_minor`` on sides ``a`` and ``b`` of length ``d - 1``."""
    d = len(a) + 1
    sets = [frozenset({a[0]}), frozenset({b[0]})]
    for i in range(1, d - 1):
        sets.append(frozenset({a[i], b[i]}))
    connectors = {}
    for i in range(d):
        for j in range(i + 1, d):
            if i == 0 and j == 1:
                path = (a[0], b[0])
            elif i == 0:
                path = (a[0], b[j - 1])
            elif i == 1:
                path = (b[0], a[j - 1])
            else:
                path = (a[i - 1], b[j - 1])
            connectors[(i, j)] = path
    return sets, connectors


def bipartite_clique_minor(d):
    """Clique minor of order ``d`` inside the complete bipartite ``K_{d-1,d-1}``:
    two opposite corner singletons plus matched cross pairs."""
    if d < 2:
        raise InvalidParameter(f"needs d >= 2, got {d}")
    host = complete_bipartite(d - 1, d - 1)
    idx = {v: i for i, v in enumerate(host.vertices)}
    a = [idx[f"a{i}"] for i in range(d - 1)]
    b = [idx[f"b{i}"] for i in range(d - 1)]
    sets, connectors = _bipartite_model(a, b)
    witness = MinorWitness(d, _complete_edges(d), sets, connectors, host, "bipartite")
    return _checked(host, witness, "bipartite construction")


# -- hub lifting ----------------------------------------------------------------


def _middle_in(link, sub, ell):
    unit = link.middle_unit()
    if ell % 2 == 0:
        return sub.has_vertex(unit)
    return sub.has_edge(unit)


def lift_minor(G, ell, branch_sets, H=None, hub=None, limit=None):
    """Lift a minor of the hub subgraph into the link graph.

    Each branch set must contain a full link of its length; the lifted branch
    set is the component, of links whose middle unit sits in the branch set,
    that contains its links.  Connectors are an edge for even length and a
    two-step path through a link centred on the crossing edge for odd length.
    """
    if hub is None:
        hub = hub_subgraph(G, ell, limit)
    if H is None:
        H = link_graph(G, ell, limit)
    sets = [frozenset(bs) for bs in branch_sets]
    seen = set()
    for bs in sets:
        if not bs:
            raise PreconditionViolated("empty branch set")
        for v in bs:
            if not hub.has_vertex(v):
                raise PreconditionViolated(f"{v!r} is not a hub vertex")
            if v in seen:
                raise PreconditionViolated(f"branch sets overlap at {v!r}")
            seen.add(v)
    subs = [hub.induced_subgraph(bs) for bs in sets]
    for sub in subs:
        if not sub.is_connected():
            raise PreconditionViolated("branch set does not induce a connected subgraph")

    inner_links = []
    for k, sub in enumerate(subs):
        found = enumerate_links(sub, ell, limit)
        if not found:
            raise BranchSetLacksLink(f"branch set {k} holds no link of length {ell}")
        inner_links.append(set(found))

    adj = H.adjacency()
    lifted = []
    for k, sub in enumerate(subs):
        members = {i for i, l in enumerate(H.vertices) if _middle_in(l, sub, ell)}
        inner_idx = {H.index[l] for l in inner_links[k]}
        comp = reachable(adj, [min(inner_idx)], members)
        if not inner_idx <= comp:
            raise WitnessInvalid("links of one branch set fell into two components")
        lifted.append(frozenset(comp))

    # target edges: hub edges between different branch sets, one per pair
    vertex_part = {}
    for k, bs in enumerate(sets):
        for v in bs:
            vertex_part[v] = k
    cross = {}
    for eid, u, v in hub.edges():
        pu, pv = vertex_part.get(u), vertex_part.get(v)
        if pu is None or pv is None or pu == pv:
            continue
        pair = (pu, pv) if pu < pv else (pv, pu)
        if pair not in cross or eid < cross[pair]:
            cross[pair] = eid

    middle_map = {}
    if ell % 2 == 1:
        for i, l in enumerate(H.vertices):
            middle_map.setdefault(l.middle_unit(), []).append(i)

    connectors = {}
    for (i, j), eid in sorted(cross.items()):
        if ell % 2 == 0:
            found = None
            for a, b, _ in H.edges:
                if a in lifted[i] and b in lifted[j]:
                    found = (a, b)
                    break
                if b in lifted[i] and a in lifted[j]:
                    found = (b, a)
                    break
            if found is None:
                raise WitnessInvalid("no direct edge between lifted branch sets")
            connectors[(i, j)] = found
        else:
            found = None
            for mid in middle_map.get(eid, ()):
                a = next((x for x in sorted(adj[mid]) if x in lifted[i]), None)
                b = next((x for x in sorted(adj[mid]) if x in lifted[j]), None)
                if a is not None and b is not None:
                    found = (a, mid, b)
                    break
            if found is None:
                raise WitnessInvalid("no two-step connector through the crossing edge")
            connectors[(i, j)] = found

    witness = MinorWitness(len(sets), frozenset(cross), lifted, connectors, H, "hub-lift")
    return _checked(H, witness, "hub lifting")


# -- the combined lower bound ---------------------------------------------------


def _k2_witness(H):
    """The first edge of the link graph ``H``, which has one, as a K_2.  On
    a ``LabeledGraph`` it is the least end pair ``(i, j)``, ``i < j``, found
    in one scan of the edges in the order the graph holds them, so no sort."""
    if isinstance(H, LabeledGraph):
        lo, hi = H._pairs()
        a, b = min(zip(map(min, lo, hi), map(max, lo, hi)))
    else:
        a, b = H.first_edge()
    return _k2(a, b, H, "edge")


def _degeneracy_route(G, ell, H):
    """A K_d witness in the link graph ``H``, where d >= 2 is the degeneracy
    of ``G``, or ``None``.

    At ``ell = 1``, d edges at one vertex of the d-core are pairwise adjacent
    in the line graph.  For ``ell >= 2``, take an (ell - 1)-arc p of the
    d-core and d - 1 further core edges at each of its ends: the links that
    extend p by one edge at its tail and those that extend it at its head are
    the sides of a K_{d-1,d-1} in ``H``, since one edge at each end extends p
    to an (ell + 1)-link, and ``_bipartite_model`` holds a K_d in it.  The
    arcs p are walked one at a time in ``enumerate_arcs`` order
    (``_walk_arcs``) and the first whose witness verifies wins; a core with
    more than 5,000 (ell - 1)-arcs raises ``LimitExceeded`` before any is
    walked, as ``enumerate_arcs(core, ell - 1, 5000)`` does, which ends the
    bound."""
    d, core = G.degeneracy(with_core=True)
    if d < 2:
        return None
    if ell == 1:
        v = min((x for x in core.vertices if core.degree(x) >= d),
                key=lambda x: (core.degree(x), x))
        edge_links = [H._lookup(min((v, eid, w), (w, eid, v))) for eid, w in core.incident(v)[:d]]
        sets = [frozenset({i}) for i in edge_links[:d]]
        connectors = {}
        for i in range(d):
            for j in range(i + 1, d):
                connectors[(i, j)] = (edge_links[i], edge_links[j])
        witness = MinorWitness(d, _complete_edges(d), sets, connectors, H, "degeneracy")
        return _checked(H, witness, "degeneracy construction")
    fwd = _counted(core, {ell - 1: 5000})[1]
    for p in _walk_arcs(core, ell - 1, fwd):
        a_ext = [(eid, w) for eid, w in core.incident(p[0]) if eid != p[1]][: d - 1]
        b_ext = [(eid, w) for eid, w in core.incident(p[-1]) if eid != p[-2]][: d - 1]
        if len(a_ext) < d - 1 or len(b_ext) < d - 1:
            continue
        a_links = [_windows((w, eid) + p, ell)[0] for eid, w in a_ext]
        b_links = [_windows(p + (eid, w), ell)[0] for eid, w in b_ext]
        if len(set(a_links) | set(b_links)) != 2 * (d - 1):
            continue
        sets, connectors = _bipartite_model(list(map(H._lookup, a_links)),
                                            list(map(H._lookup, b_links)))
        witness = MinorWitness(d, _complete_edges(d), sets, connectors, H, "degeneracy")
        if verify_minor(H, witness).ok:
            return witness
    return None


def _triple_split_cycle_witness(G, ell, H):
    """Clique minor of order three from a shortest simple cycle of length >= 3."""
    cyc = G.underlying_simple().shortest_cycle()
    if cyc is None or len(cyc) < 7:  # a cycle of length >= 3
        return None
    order = list(map(H._lookup, _cycle_links(cyc, ell)))
    k = len(order) // 3
    a, b, c = order[:k], order[k : 2 * k], order[2 * k :]
    connectors = {(0, 1): (a[-1], b[0]), (1, 2): (b[-1], c[0]), (0, 2): (a[0], c[-1])}
    witness = MinorWitness(3, _complete_edges(3), list(map(frozenset, (a, b, c))), connectors,
                           H, "cycle")
    return witness if verify_minor(H, witness).ok else None


def _peel_degree_one(G):
    cur = G
    while True:
        keep = [v for v in cur.vertices if cur.degree(v) >= 2]
        if len(keep) == cur.n:
            return cur
        if not keep:
            return cur.induced_subgraph([])
        cur = cur.induced_subgraph(keep)


def _component(G, comp):
    """The subgraph of ``G`` on its component ``comp``: ``G`` itself when
    ``comp`` is all of it."""
    return G if len(comp) == G.n else G.induced_subgraph(comp)


def _eta_route(G, ell, H, eta_cap, limit, solve_eta):
    comps = G.components()
    best = None
    for comp in comps:
        sub = _component(G, comp)
        if sub.n > eta_cap:
            continue
        eta = solve_eta(sub)
        if best is None or eta > best[0]:
            best = (eta, sub)
    if best is None:
        return None
    eta, comp_graph = best
    if eta <= 1:
        return None
    if eta == 2:
        return _k2_witness(H)
    if eta == 3:
        return _triple_split_cycle_witness(comp_graph, ell, H)
    peeled = _peel_degree_one(comp_graph)
    hub = hub_subgraph(peeled, ell, limit)
    if sorted(hub.vertices) != sorted(peeled.vertices) or sorted(hub.edge_ids) != sorted(
        peeled.edge_ids
    ):
        return None  # hub equality failed; other routes must serve
    # peeling degree-one vertices keeps every clique minor of order >= 3
    sets = [set(bs) for bs in _model_of_order(peeled, eta)]
    assigned = set().union(*sets)
    changed = True
    while changed:
        changed = False
        for v in sorted(peeled.vertices):
            if v in assigned:
                continue
            for k, bs in enumerate(sets):
                if any(w in bs for w in peeled.neighbors(v)):
                    bs.add(v)
                    assigned.add(v)
                    changed = True
                    break
    deficient = None
    for k, bs in enumerate(sets):
        if not has_arc(peeled.induced_subgraph(bs), ell):
            deficient = k
            break
    if deficient is None:
        # the lift reads every vertex of the link graph
        if not isinstance(H, LabeledGraph):
            H = link_graph(G, ell, limit)
        try:
            return lift_minor(peeled, ell, [frozenset(bs) for bs in sets], H=H,
                              hub=hub, limit=limit)
        except WitnessInvalid:
            raise
        except LinkGraphError:
            return None
    x_set = frozenset(sets[deficient])
    inst = CutInstance(peeled, x_set)
    try:
        return complete_minor_with_cycle(peeled, ell, inst, H=H, limit=limit)
    except WitnessInvalid:
        raise
    except LinkGraphError:
        return None


def _candidate_route(G, ell, H, limit, best):
    """The largest cut witness that beats ``K_best``, the largest witness found
    before this route, as ``(witness, None)``; ``(None, note)`` when none does.

    The candidate sets are tried by decreasing cut size t.
    ``complete_minor_with_cycle`` gives exactly K_{t+1}, and
    ``complete_minor_from_cut`` gives K_t (K_2 when t = 2).  The caller keeps
    the first of equal witnesses, so a later one counts only when it is
    strictly larger than every witness before it: ``best`` rises with each
    witness found, the cut construction is not tried when t <= best, and the
    search stops at the first candidate with t + 1 <= best, because every
    later candidate has a cut no larger.  So each witness found beats the
    one before, the last is the one the unbounded search would have kept,
    and a witness that could not be chosen is never built.
    """
    comps = G.components()
    candidates = []
    seen = set()
    for comp in comps:
        comp_set = set(comp)
        sub = _component(G, comp)
        radius_cap = max(0, (ell + 1) // 2 - 1)
        for v in comp:
            dist = sub._bfs_dist(v)
            balls = [frozenset(x for x in dist if dist[x] <= r) for r in range(radius_cap + 1)]
            for ball in balls:
                if ball in seen or len(ball) >= len(comp_set):
                    continue
                seen.add(ball)
                candidates.append((sub, ball))
                if len(candidates) >= _MAX_CANDIDATES:
                    break
            if len(candidates) >= _MAX_CANDIDATES:
                break
    scored = []
    for sub, ball in candidates:
        t = sum(1 for _, u, v in sub.edges() if (u in ball) != (v in ball))
        scored.append((-t, sorted(ball), sub, ball))
    scored.sort(key=lambda s: (s[0], s[1]))
    found, stopped = None, False
    for neg_t, _, sub, ball in scored[:_TRIES]:
        t = -neg_t
        if t + 1 <= best:
            stopped = True
            break
        inst = CutInstance(sub, ball)
        builders = (complete_minor_with_cycle, complete_minor_from_cut)
        for builder in builders if t > best else builders[:1]:
            try:
                w = builder(sub, ell, inst, H=H, limit=limit)
            except WitnessInvalid:
                raise
            except LinkGraphError:
                continue
            found, best = w, w.target_size
            break
    if found is not None:
        return found, None
    return None, f"none can beat K_{best}" if stopped else "no witness"


@dataclass
class LowerBoundResult:
    bound: int
    witness: MinorWitness
    route: str
    notes: list


def hadwiger_lower_bound(G, ell, H=None, eta_cap=DEFAULT_HADWIGER_CAP, limit=None):
    """Best verified clique-minor witness in the link graph.

    Tries the degeneracy route (bipartite clique inside one edge part), the
    model route through the hub or a deficient branch set, and cut candidates;
    never returns a bound without a verified witness.  The first of the
    largest witnesses wins, the K_2 of an edge when no route beats it.  The
    cut candidates come last and build only witnesses larger than the best
    before them (``_candidate_route``).  A route that passes an oracle cap
    gives no witness and leaves a note naming the cap; the degeneracy
    route's arc cap raises ``LimitExceeded``.

    With no ``H``, the routes run on a link host that builds nothing: it
    checks the caps ``link_graph`` checks on the arc counts, gives each link
    an id on its first lookup, and reads a vertex's neighbours off its
    one-step shunts, so a witness is found and verified on the links it
    touches, and hosted there (``n``, ``m``, ``host[i]`` the neighbour ids of
    vertex ``i`` and ``host.vertices[i]`` its link).  Only the hub lift,
    which reads every vertex, builds the link graph, and hosts its witness
    there.  A passed ``H`` hosts every witness.  The routes carry links as
    canonical unit tuples and look them up by those (``_lookup``), in a
    ``LabeledGraph`` through a dict of its vertices' unit tuples made once,
    from the kernel levels while it holds them, so of a graph from
    ``link_graph`` they make no ``Link``, but for the hub lift.  Either way
    ``witness.to_json()`` labels the vertices by their links.
    """
    return _lower_bound(G, ell, H, eta_cap, limit, lambda sub: hadwiger_number(sub, eta_cap))


def _lower_bound(G, ell, H, eta_cap, limit, solve_eta):
    """``hadwiger_lower_bound``, where ``solve_eta(sub)`` gives the Hadwiger
    number of each component ``sub`` of ``G`` with at most ``eta_cap``
    vertices that the model route reads; it raises what ``hadwiger_number``
    raises."""
    if ell < 1:
        raise PreconditionViolated(f"needs ell >= 1, got {ell}")
    if H is None:
        H = _LinkHost(G, ell, limit)
    if H.m == 0:
        raise NoEdge("the link graph has no edge")
    notes, witnesses = [], []
    for name, fn in (
        ("degeneracy", lambda: _degeneracy_route(G, ell, H)),
        ("model", lambda: _eta_route(G, ell, H, eta_cap, limit, solve_eta)),
    ):
        try:
            w = fn()
        except OracleTooLarge as exc:
            notes.append(f"{name}: {exc}")
            continue
        if w is not None:
            witnesses.append(_checked(w.host, w, f"{name} witness"))
        else:
            notes.append(f"{name}: no witness")
    best = max(witnesses, key=lambda w: w.target_size, default=None)
    w, note = _candidate_route(G, ell, H, limit, best.target_size if best else 2)
    if w is None:
        notes.append(f"cut-candidates: {note}")
    else:
        best = _checked(H, w, "cut-candidates witness")
    if best is None or best.target_size <= 2:
        # the K_2 of the first edge comes first among equal witnesses; the
        # model route has made it already when eta(G) = 2
        best = next((w for w in witnesses if w.route == "edge"), None) or _k2_witness(H)
    return LowerBoundResult(best.target_size, best, best.route, notes)
