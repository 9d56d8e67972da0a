"""Reference searches for the Hadwiger number, clique-minor models and the
clique-minor lower bound.

``hadwiger_number`` is the original implementation of
``minors.hadwiger_number``: the maximum over every contraction sequence,
memoised per isomorphism class.  ``_model_of_order`` is the original model
search, memoised the same way, and ``_candidate_route`` the cut-candidate
route that builds a witness for every candidate it tries.
``hadwiger_lower_bound`` is the original lower bound on top of those two.
``_contracts_to`` is the decision search on neighbour bitmasks as it was
before it branched on the edges of one vertex: every edge is tried.
``lift_minor`` is the hub lift as it was before it read its link graph in one
pass: it enumerates each branch set's links, tests every vertex's middle unit
against each branch set, and takes each even connector from a scan of the
edges.
The package answers the same questions by pruned searches on neighbour
bitmasks; the tests check that both agree.
"""

from __future__ import annotations

from collections import deque
from unittest import mock

from linkgraphs import minors
from linkgraphs.canon import canonical_key
from linkgraphs.errors import (
    BranchSetLacksLink,
    LinkGraphError,
    NoEdge,
    OracleTooLarge,
    PreconditionViolated,
    WitnessInvalid,
)
from linkgraphs.construction import link_graph, reachable
from linkgraphs.links import enumerate_links, hub_subgraph
from linkgraphs.minors import (
    DEFAULT_HADWIGER_CAP,
    CutInstance,
    LowerBoundResult,
    MinorWitness,
    complete_minor_from_cut,
    complete_minor_with_cycle,
)


def _simple_pairs(G):
    """The vertices of ``G`` in order and the set of index pairs ``(i, j)``,
    ``i < j``, of its edges, parallel edges collapsed."""
    idx = {v: i for i, v in enumerate(G.vertices)}
    return list(G.vertices), {tuple(sorted((idx[u], idx[v]))) for _, u, v in G.edges()}


def _max_clique_vertices(n, pairs):
    """``minors._max_clique_vertices`` on an edge list."""
    rows = [0] * n
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return minors._max_clique_vertices(tuple(rows))


def _contract_pair(n, pairs, i, j):
    """Contract j into i; relabel to 0..n-2 keeping order."""
    relabel = {}
    k = 0
    for v in range(n):
        if v == j:
            continue
        relabel[v] = k
        k += 1
    relabel[j] = relabel[i]
    out = set()
    for a, b in pairs:
        x, y = relabel[a], relabel[b]
        if x == y:
            continue
        out.add((x, y) if x < y else (y, x))
    return n - 1, frozenset(out)


def hadwiger_number(G, cap=DEFAULT_HADWIGER_CAP):
    """Largest clique minor order, by contraction recursion with memoised
    canonical forms.  Parallel edges are collapsed first."""
    simp = G.underlying_simple()
    if cap is not None and simp.n > cap:
        raise OracleTooLarge(simp.n, cap)
    _, pairs = _simple_pairs(simp)
    memo = {}

    def rec(n, edges):
        if n <= 1:
            return n
        key = canonical_key(n, {e: 1 for e in edges})
        if key in memo:
            return memo[key]
        best = len(_max_clique_vertices(n, edges))
        for i, j in sorted(edges):
            if n - 1 <= best:
                break
            best = max(best, rec(*_contract_pair(n, edges, i, j)))
        memo[key] = best
        return best

    return rec(simp.n, frozenset(pairs))


def _contracts_to(rows, m, t, failed):
    """``minors._contracts_to`` trying every edge i < j at every node."""
    n = len(rows)
    spare = t * (t - 1) // 2 - t
    if n < t or spare + n > m:
        return False
    if 2 * m == n * (n - 1):
        return True
    if rows in failed:
        return False
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            if not row >> j & 1:
                continue
            left = m - 1 - (row & rows[j]).bit_count()
            if spare + n - 1 <= left and _contracts_to(minors._merge(rows, i, j), left, t, failed):
                return True
    failed.add(rows)
    return False


def _model_of_order(G, eta):
    """Branch sets of a K_eta model in G, where eta is G's Hadwiger number."""
    verts, pairs = _simple_pairs(G)
    failed = set()

    def dfs(n, edges, labels):
        clique = _max_clique_vertices(n, edges)
        if len(clique) >= eta:
            return [labels[v] for v in clique[:eta]]
        if n <= eta:
            return None
        key = canonical_key(n, {e: 1 for e in edges})
        if key in failed:
            return None
        for i, j in sorted(edges):
            nn, ne = _contract_pair(n, edges, i, j)
            nl = []
            for v in range(n):
                if v == j:
                    continue
                nl.append(labels[v] | labels[j] if v == i else labels[v])
            res = dfs(nn, ne, nl)
            if res is not None:
                return res
        failed.add(key)
        return None

    model = dfs(len(verts), frozenset(pairs), [frozenset({v}) for v in verts])
    if model is None:
        raise WitnessInvalid(f"no K_{eta} model found; the search disagrees with the oracle")
    return model


def _candidate_route(G, ell, H, limit, max_candidates=200, tries=12):
    comps = G.components()
    candidates = []
    seen = set()
    for comp in comps:
        comp_set = set(comp)
        sub = G.induced_subgraph(comp)
        radius_cap = max(0, (ell + 1) // 2 - 1)
        for v in comp:
            balls = [frozenset({v})]
            if radius_cap >= 1:
                dist = {v: 0}
                queue = deque([v])
                while queue:
                    x = queue.popleft()
                    if dist[x] >= radius_cap:
                        continue
                    for _, w in sub.incident(x):
                        if w not in dist:
                            dist[w] = dist[x] + 1
                            queue.append(w)
                for r in range(1, radius_cap + 1):
                    balls.append(frozenset(x for x in dist if dist[x] <= r))
            for ball in balls:
                if ball in seen or len(ball) >= len(comp_set):
                    continue
                seen.add(ball)
                candidates.append((sub, ball))
                if len(candidates) >= max_candidates:
                    break
            if len(candidates) >= max_candidates:
                break
    scored = []
    for sub, ball in candidates:
        t = sum(1 for _, u, v in sub.edges() if (u in ball) != (v in ball))
        scored.append((-t, sorted(ball), sub, ball))
    scored.sort(key=lambda s: (s[0], s[1]))
    best = None
    for _, _, sub, ball in scored[:tries]:
        inst = CutInstance(sub, ball)
        for builder in (complete_minor_with_cycle, complete_minor_from_cut):
            try:
                w = builder(sub, ell, inst, H=H, limit=limit)
            except WitnessInvalid:
                raise
            except LinkGraphError:
                continue
            if best is None or w.target_size > best.target_size:
                best = w
            break
    return best


def hadwiger_lower_bound(G, ell, H=None, eta_cap=DEFAULT_HADWIGER_CAP, limit=None):
    """``minors.hadwiger_lower_bound`` as it was before the bounded candidate
    route: every route runs in full, and the model route uses the
    canonical-form model search above."""
    if ell < 1:
        raise PreconditionViolated(f"needs ell >= 1, got {ell}")
    if H is None:
        H = link_graph(G, ell, limit)
    if H.m == 0:
        raise NoEdge("the link graph has no edge")
    notes = []
    witnesses = [minors._k2_witness(H)]
    for name, fn in (
        ("degeneracy", lambda: minors._degeneracy_route(G, ell, H)),
        ("model", lambda: minors._eta_route(G, ell, H, eta_cap, limit,
                                            lambda sub: minors.hadwiger_number(sub, eta_cap))),
        ("cut-candidates", lambda: _candidate_route(G, ell, H, limit)),
    ):
        try:
            with mock.patch.object(minors, "_model_of_order", _model_of_order):
                w = fn()
        except OracleTooLarge as exc:
            notes.append(f"{name}: {exc}")
            continue
        if w is not None:
            witnesses.append(minors._checked(H, w, f"{name} witness"))
        else:
            notes.append(f"{name}: no witness")
    best = max(witnesses, key=lambda w: w.target_size)
    return LowerBoundResult(best.target_size, best, best.route, notes)


def _middle_in(link, sub, ell):
    unit = link.middle_unit()
    if ell % 2 == 0:
        return sub.has_vertex(unit)
    return sub.has_edge(unit)


def lift_minor(G, ell, branch_sets, H=None, hub=None, limit=None):
    """``minors.lift_minor`` as it was before it read its link graph in one pass."""
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
    return minors._checked(H, witness, "hub lifting")
