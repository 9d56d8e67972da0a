"""The tables each kernel level keeps, and the structural claims read off
them, against fresh derivations and the ``Link``-based references."""

from __future__ import annotations

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_claims as ref
import reference_links
from linkgraphs import harness, links
from linkgraphs.construction import link_graph
from linkgraphs.harness import Caps, CorpusInstance, _Cache, _hub_parts
from linkgraphs.links import _arcs, _kernel, _walks, hub_subgraph

from strategies import multigraphs

# the references walk every arc as a tuple; keep each example small
BUDGET = 3000


def _lengths(G, top=5):
    """Lengths 0..top whose one-longer arcs fit the budget."""
    totals = _walks(G, top + 1)[0]
    return [ell for ell in range(top + 1) if _arcs(totals, ell + 1) <= BUDGET]


# name: (lowest level, read), for the tables a level keeps
TABLES = {
    "canon": (0, lambda G, levels, L: links._canonical(levels[L])),
    "ids": (0, lambda G, levels, L: links._link_ids(levels[L])),
    "windows": (1, lambda G, levels, L: links._window_ids(levels, L - 1)),
    "middles": (2, lambda G, levels, L: links._middle_ids(levels, L)),
    "paths": (0, lambda G, levels, L: links._paths(G, levels, L)),
}


def _fresh(G, top):
    """Kernel levels 0..top holding every arc, with nothing derived yet."""
    return _kernel(G, 0, {L: BUDGET for L in range(top + 1)})


def _derived(G, levels, name, L):
    """The table ``name`` of level ``L`` derived by plain loops over the
    kernel tables and the reference arcs."""
    def ids(L):
        # a link's index is the rank of its lesser arc among the canonical arcs
        rev = levels[L].rev
        rank = {k: i for i, k in enumerate(k for k, r in enumerate(rev) if k <= r)}
        return [rank[min(k, r)] for k, r in enumerate(rev)]

    lv = levels[L]
    canon = [k for k, r in enumerate(lv.rev) if k <= r]
    if name == "canon":
        return bytes(k <= r for k, r in enumerate(lv.rev))
    if name == "ids":
        return array("i", ids(L))
    if name == "windows":
        below = ids(L - 1)
        return (array("i", [below[lv.parent[k]] for k in canon]),
                array("i", [below[lv.suffix[k]] for k in canon]))
    if name == "middles":
        below = ids(L - 2)
        return array("i", [below[levels[L - 1].suffix[lv.parent[k]]] for k in canon])
    arcs = reference_links.enumerate_arcs(G, L)
    return bytes(len(set(a.vertices())) == len(a.vertices()) for a in arcs)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=9), st.data())
def test_each_kept_table_is_a_fresh_derivation_in_any_read_order(G, data):
    top = max(_lengths(G, 4)) + 1
    reads = [(name, L) for name, (low, _) in TABLES.items() for L in range(low, top + 1)]
    levels = _fresh(G, top)
    for name, L in data.draw(st.permutations(reads)):
        read = TABLES[name][1]
        got = read(G, levels, L)
        assert read(G, levels, L) is got
        assert got == read(G, _fresh(G, top), L) == _derived(G, levels, name, L), (name, L)
        # a kept table is bytes or an array of ints, shared by every reader
        tables = got if name == "windows" else (got,)
        assert all(type(t) in (bytes, array) for t in tables)


def _records(checker, inst, ells, low):
    """The run cache and the ``(ell, status, detail)`` that a claim check
    gives at each of the lengths ``ells`` from ``low`` on."""
    caps = Caps(ell_range=tuple(ells))
    cache = _Cache(caps, (0, max(ells) + 1))
    return cache, [(ell, *checker(inst, caps, cache, ell)) for ell in ells if ell >= low]


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=9))
def test_claim_readers_match_their_link_references(G):
    ells, inst = _lengths(G), CorpusInstance("g", G)
    pairs, girth = ref.parallel_pairs(G), G.girth()
    for checker, reference, low in (
            (harness._check_looplessness, ref.looplessness, 0),
            (harness._check_multiplicity, lambda H: ref.multiplicity(H, pairs), 1),
            (harness._check_path_graphs, lambda H: ref.path_girth(H, girth), 0)):
        # the kernel-id reader runs first, so no Link is made before it
        cache, got = _records(checker, inst, ells, low)
        want = [(ell, *reference(cache.graph(inst, ell))) for ell in ells if ell >= low]
        assert got == want, checker.__name__


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=9))
def test_digon_cycle_links_are_the_alternating_walk_patterns(G):
    # Obs3.4 reads a parallel pair's doubled edge off the link graph of its 2-cycle
    for ell in range(1, 7):
        digons = {}
        for u, v, e, f in harness._parallel_pairs(G):
            digon = (u, e, v, f, u)
            windows = frozenset(links._cycle_links(digon, ell))
            digons.setdefault(windows, set()).add(frozenset(links._cycle_links(digon, ell + 1)))
        assert digons == ref.parallel_patterns(ref.parallel_pairs(G), ell)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=7, max_m=12), st.data())
def test_hub_parts_and_middle_units_match_their_link_references(G, data):
    edges = data.draw(st.sets(st.sampled_from(sorted(G.edge_ids)))) if G.m else set()
    verts = data.draw(st.sets(st.sampled_from(G.vertices)))
    inst = CorpusInstance("g", G)
    cache = _Cache(Caps(), (0, 6))
    for ell in _lengths(G):
        H = link_graph(G, ell)
        levels = cache.link_levels(inst, ell, ell + 1)
        for hub in (hub_subgraph(G, ell), G.edge_subgraph(edges), G.induced_subgraph(verts)):
            assert _hub_parts(G, ell, levels, hub) == ref.hub_parts(H, hub)
        assert cache.middle_comps(inst, ell) == ref.middle_comps(H)
