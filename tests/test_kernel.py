"""The integer arc kernel, what is derived from a link graph, and the
recursive colouring read off one kernel build, against the reference
builders."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_coloring
import reference_links as ref
from linkgraphs import coloring, construction, harness, links, multigraph
from linkgraphs.coloring import DEFAULT_CHROMATIC_CAP, is_proper, recursive_chromatic_bound
from linkgraphs.construction import (
    AlmostStandardPartition,
    ChainDigraph,
    _quotient_embeds,
    arc_digraph,
    digraph_natural_iso_check,
    iterated_line_digraph,
    link_graph,
    link_graph_connected,
    natural_partition,
    path_graph,
    shunt_reach,
    verify_almost_standard,
)
from linkgraphs.errors import LimitExceeded, LinkGraphError
from linkgraphs.harness import (
    Caps,
    CorpusInstance,
    _Cache,
    _hub_links,
    _hub_parts,
    verify_suite,
)
from linkgraphs.minors import hadwiger_lower_bound
from linkgraphs.links import (
    Link,
    _walks,
    enumerate_arcs,
    enumerate_links,
    has_arc,
    hub_subgraph,
    middle_units,
)
from linkgraphs.multigraph import (
    Multigraph,
    complete,
    dipole,
    parallel_bridge,
    path,
    petersen,
    wheel,
)

from strategies import multigraphs

# the reference walks every arc as a tuple; keep each example small
ARC_BUDGET = 3000


def _lengths(G, top=5, budget=ARC_BUDGET):
    """Lengths 0..top whose one-longer arcs fit the budget."""
    totals = _walks(G, top + 1)[0]
    return [ell for ell in range(top + 1) if totals[ell + 1] <= budget]


def _raised(fn, *args):
    with pytest.raises(LimitExceeded) as info:
        fn(*args)
    return info.value.count, info.value.limit


@settings(max_examples=80, deadline=None)
@given(multigraphs(max_n=7, max_m=12))
def test_kernel_matches_depth_first_reference(G):
    for ell in _lengths(G):
        assert enumerate_arcs(G, ell) == ref.enumerate_arcs(G, ell)
        assert enumerate_links(G, ell) == ref.enumerate_links(G, ell)
        H, R = link_graph(G, ell), ref.link_graph(G, ell)
        assert H.vertices == R.vertices and H.edges == R.edges
        assert H.same_labeled_graph(R) and H.index == R.index
        if ell >= 1:
            A, B = arc_digraph(G, ell), ref.arc_digraph(G, ell)
            assert A.vertices == B.vertices and A.arcs == B.arcs
        assert link_graph_connected(G, ell) == ref.link_graph_connected(G, ell)
        assert middle_units(G, ell) == {l.middle_unit() for l in ref.enumerate_links(G, ell)}
        assert has_arc(G, ell) == bool(ref.enumerate_arcs(G, ell))


def _tables(levels):
    """The six tables of each kernel level as lists, ``None`` where freed."""
    return [[None if table is None else list(table)
             for table in (lv.parent, lv.last, lv.suffix, lv.rev, lv.kids, lv.back)]
            for lv in levels]


def _levels_agree(G, ell, block_from, budget=4000):
    """``_arc_levels`` and the arc-by-arc reference give the same tables at
    every level, up to ``ell`` and ``ell + 1``, with the reach table of the
    count up to the top and of one longer, as ``shunt_reach`` takes it.
    Levels from ``block_from`` parents on may take the block path."""
    for top in (ell, ell + 1):
        for count in (top, top + 1):
            totals, fwd = _walks(G, count)
            if sum(totals[: top + 1]) > budget:
                continue
            with mock.patch.object(links, "_PACK_FROM", block_from):
                got = _tables(links._arc_levels(G, fwd, ell, top))
                want = _tables(ref.arc_levels(G, fwd, ell, top))
            assert got == want, (ell, top, count)


@settings(max_examples=80, deadline=None)
@given(multigraphs(max_n=7, max_m=12))
def test_kernel_levels_match_the_arc_by_arc_reference(G):
    # with the threshold at 0 every full level of a small graph takes the block path
    for ell in range(8):
        for block_from in (0, links._PACK_FROM):
            _levels_agree(G, ell, block_from)


def _with_pendant(G, length):
    """``G`` with a path of ``length`` new edges hung from its first vertex."""
    ends = [G.vertices[0]] + [f"t{i}" for i in range(length)]
    tail = [(f"p{i}", ends[i], ends[i + 1]) for i in range(length)]
    return Multigraph(G.vertices, list(G.edges()) + tail)


TREE_AND_DIGON = Multigraph([], [("a", 0, 1), ("b", 0, 1), ("c", 0, 2), ("d", 2, 3),
                                 ("e", 2, 4), ("f", 2, 5), ("g", 3, 6)])
TRIANGLE_AND_ISOLATED = Multigraph(["x", "y", "z"], [("a", "u", "v"), ("b", "v", "w"),
                                                     ("c", "w", "u"), ("d", "w", "t")])


@pytest.mark.parametrize("G, ell, block_from", [
    (TREE_AND_DIGON, 7, 0),  # a tree plus one digon
    (_with_pendant(dipole(3), 2), 7, 0),  # parallel edges and a pendant path
    (TRIANGLE_AND_ISOLATED, 9, 0),  # isolated vertices and a pendant edge
    (_with_pendant(petersen(), 3), 7, links._PACK_FROM),
    (_with_pendant(dipole(3), 2), 8, links._PACK_FROM),
])
def test_kernel_levels_mixing_full_and_pruned_match_the_reference(G, ell, block_from,
                                                                 monkeypatch):
    taken = set()  # (builder, level built)
    real_full, real_pruned = links._full_level, links._pruned_level

    def full(G, levels):
        taken.add(("full", len(levels)))
        return real_full(G, levels)

    def pruned(D, prev, fwd, short):
        taken.add(("pruned", ell - short))
        return real_pruned(D, prev, fwd, short)

    monkeypatch.setattr(links, "_full_level", full)
    monkeypatch.setattr(links, "_pruned_level", pruned)
    _levels_agree(G, ell, block_from, budget=20000)
    # level 2 always goes arc by arc; above it, both builders ran
    assert {kind for kind, level in taken if level >= 3} == {"full", "pruned"}


def test_successor_table_is_built_once_per_graph(monkeypatch):
    builds = []
    real = multigraph._successor_table

    def counting(D):
        builds.append(D)
        return real(D)

    monkeypatch.setattr(multigraph, "_successor_table", counting)
    small = complete(4)
    link_graph(small, 3)
    assert not builds  # no level of a small graph reaches the block path
    G = petersen()
    for ell in (7, 8):
        link_graph(G, ell)
        shunt_reach(G, ell, G)
    recursive_chromatic_bound(G, 8)
    assert len(builds) == 1
    D, succ = G.darts(), G.successors()
    assert succ is G.successors()
    for d, h in enumerate(D.head):
        assert succ[d] == tuple(x for x in range(D.start[h], D.start[h + 1]) if x != D.twin[d])


def _cached_count(G, ell, limit, built, top):
    """``_Cache.count`` at ``ell`` after the link graphs at the lengths
    ``built`` are cached, in a run whose arc counts reach ``top``."""
    inst = CorpusInstance("g", G)
    cache = _Cache(Caps(suite_links=limit), (0, top))
    for length in built:
        cache.graph(inst, length)
    return cache.count(inst, ell)


@settings(max_examples=80, deadline=None)
@given(multigraphs(max_n=7, max_m=12))
def test_derived_paths_match_reference(G):
    for ell in _lengths(G):
        P, R = path_graph(G, ell), ref.path_graph(G, ell)
        assert P.same_labeled_graph(R)
        assert (P.ell, P.vertices, P.edges) == (R.ell, R.vertices, R.edges)
        H = link_graph(G, ell)
        labels = [lab for _, _, lab in H.edges]
        for link in H.vertices + tuple(labels):
            u = link.units
            assert Link.from_units(u) == Link.from_units(u[::-1]) == ref.canonical(u)
            for k in range(link.length % 2, link.length + 1, 2):
                assert link.middle_segment(k) == ref.middle_segment(link, k)
        if ell >= 2:
            part, want = natural_partition(H), ref.natural_partition(H)
            assert part.vertex_parts == want.vertex_parts
            assert part.edge_parts == want.edge_parts
        n_links = len(H.vertices)
        for limit in (n_links, max(n_links - 1, 0), len(labels)):
            # ell + 1 is one length past the counts of the run
            for length in (ell, ell + 1):
                try:
                    want = len(ref.enumerate_links(G, length, limit))
                except LimitExceeded:
                    want = None
                for built in ((), (ell,), (ell - 1,) if ell else ()):
                    assert _cached_count(G, length, limit, built, ell) == want


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=7, max_m=12))
def test_hub_parts_and_middle_segments_match_reference(G):
    totals = _walks(G, 7)[0]
    cache = _Cache(Caps())
    inst = CorpusInstance("g", G)
    for ell in _lengths(G):
        H = link_graph(G, ell)
        parts = _hub_parts(H, hub_subgraph(G, ell))
        want = ref.hub_component_links(G, ell)
        assert len(parts) == len(want)
        for (inside, allowed), (links, member) in zip(parts, want):
            assert [H.vertices[i] for i in inside] == sorted(links)
            assert allowed == {i for i, link in enumerate(H.vertices) if member(link)}
        if totals[2 * (ell // 2) + 2] <= ARC_BUDGET:
            for s, segments in enumerate(ref.middle_segment_sets(G, ell)):
                got = cache.middles(inst, 2 * (ell // 2) + s, s)
                assert {Link(u) for u in got} == segments


@pytest.mark.parametrize("G, ell", [(petersen(), 6), (wheel(5), 4), (complete(4), 5),
                                    (parallel_bridge(), 7), (path(6), 6)])
def test_kernel_matches_reference_at_larger_lengths(G, ell):
    assert enumerate_links(G, ell) == ref.enumerate_links(G, ell)
    H, R = link_graph(G, ell), ref.link_graph(G, ell)
    assert H.vertices == R.vertices and H.edges == R.edges


@contextmanager
def _counting_links():
    """A list that gains one entry per ``Link`` made inside the block."""
    made = []
    real = Link.__init__

    def counting(self, *args):
        made.append(args)
        real(self, *args)

    with mock.patch.object(Link, "__init__", counting):
        yield made


def _core(H):
    """What a link graph answers from its integer core."""
    pairs = list(zip(*H.ends))
    return (H.n, H.m, pairs, H.degrees(), H.adjacency(), H.components(), H.is_connected(),
            [H.multiplicity(i, j) for i, j in pairs[:5]])


@settings(max_examples=80, deadline=None)
@given(multigraphs(max_n=7, max_m=12))
def test_link_graph_core_matches_reference_before_its_links_are_made(G):
    for ell in _lengths(G):
        R = ref.link_graph(G, ell)
        with _counting_links() as made:
            H = link_graph(G, ell)
            assert _core(H) == _core(R)
            assert [(i, j) for i, j, _ in R.edges] == list(zip(*H.ends))
        assert not made
        assert (H.vertices, H.edges, H.index) == (R.vertices, R.edges, R.index)
        assert _core(H) == _core(R)


def test_integer_reads_make_no_links():
    G = petersen()
    with _counting_links() as made:
        assert sum(link_graph(G, 6).degrees()) == 2 * 15 * 2**6
        rec = recursive_chromatic_bound(G, 6)
        assert rec.graph.n == 15 * 2**5 and is_proper(rec.graph, rec.coloring)
        # the degeneracy route's arc cap stops it after the edge witness
        with pytest.raises(LimitExceeded):
            hadwiger_lower_bound(G, 10)
        # Thm3.x reads only the size of a graph beyond the colouring cap
        report = verify_suite(corpus=[CorpusInstance("petersen", G)], claims=["Thm3"],
                              caps=Caps(ell_range=(4,), minor_ells=()))
        assert {r.status for r in report.records} == {"skip"}
    assert not made
    # the links are made on the first read
    with _counting_links() as made:
        assert len(rec.graph.vertices) == rec.graph.n
    assert len(made) == rec.graph.n + rec.graph.m


def test_counting_claims_make_no_links():
    # Obs3.1 and Obs3.2 read the link graphs' integer cores and the arc counts
    for claim in ("Obs3.1", "Obs3.2"):
        with _counting_links() as made:
            report = verify_suite(claims=[claim])
        assert report.records and report.passed()
        assert not made, claim


def test_hub_claims_make_the_links_of_each_link_graph_once():
    # Lem3.5 reads its middles off kernel ids; only Lem3.7's hub parts make links
    corpus = [CorpusInstance("complete(4)", complete(4)), CorpusInstance("path(5)", path(5))]
    sizes = [link_graph(inst.graph, ell) for inst in corpus for ell in Caps().ell_range]
    with _counting_links() as made:
        report = verify_suite(corpus=corpus, claims=["Lem3.5"])
    assert report.passed()
    assert len(made) == sum(H.n + H.m for H in sizes)


@pytest.mark.parametrize("G", [wheel(5), path(5)])
def test_counting_sees_an_edge_the_level_build_drops(G, monkeypatch):
    # non-regular graphs, so only the count against the arc counts can fail
    real_graph, real_canonical = construction._windows_graph, construction._canonical

    def dropping(graph, ell, levels):
        def canonical(level):
            mask = real_canonical(level)
            if level is levels[ell + 1] and 1 in mask:
                mask[mask.index(1)] = 0
            return mask

        with mock.patch.object(construction, "_canonical", canonical):
            return real_graph(graph, ell, levels)

    monkeypatch.setattr(harness, "_windows_graph", dropping)
    report = verify_suite(corpus=[CorpusInstance("g", G)], claims=["Obs3.1"])
    # every length with an edge to drop fails
    totals = _walks(G, 7)[0]
    fails = {r.ell: r.detail for r in report.records if r.status == "fail"}
    assert fails == {ell: f"|E|={totals[ell + 1] // 2 - 1} but {totals[ell + 1] // 2} longer links"
                     for ell in Caps().ell_range if totals[ell + 1]}
    assert len(fails) >= 4


def test_ids_sort_as_edge_ids_sort():
    # e10 sorts before e2: dart order follows the string ids, not the numbers
    G = Multigraph([], [(f"e{k}", "a", "b") for k in range(1, 12)])
    assert enumerate_arcs(G, 2) == ref.enumerate_arcs(G, 2)
    assert link_graph(G, 1).edges == ref.link_graph(G, 1).edges


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_n=6, max_m=9))
def test_limits_at_the_boundary(G):
    for ell in _lengths(G, 4):
        arcs = len(ref.enumerate_arcs(G, ell))
        links = len(ref.enumerate_links(G, ell))
        assert len(enumerate_arcs(G, ell, arcs)) == arcs
        assert len(enumerate_links(G, ell, links)) == links
        if arcs:
            assert _raised(enumerate_arcs, G, ell, arcs - 1) == _raised(
                ref.enumerate_arcs, G, ell, arcs - 1)
        if links:
            assert _raised(enumerate_links, G, ell, links - 1) == _raised(
                ref.enumerate_links, G, ell, links - 1)
        enough = max(links, len(ref.enumerate_links(G, ell + 1)))
        assert link_graph(G, ell, enough).n == links
        if enough:
            assert _raised(link_graph, G, ell, enough - 1) == _raised(
                ref.link_graph, G, ell, enough - 1)


@pytest.mark.parametrize("limit", [11, 40, 47, 48, 96])
def test_instance_kernel_checks_each_cap_as_its_own_kernel_does(limit):
    # complete(4) has 4, 12, 24, 48 and 96 arcs of lengths 0 to 4; the
    # instance kernel holds the lengths within twice the limit (links), and
    # the arc digraph caps arcs at the limit itself
    G, inst = complete(4), CorpusInstance("complete(4)", complete(4))
    cache = _Cache(Caps(suite_links=limit), (0, 4))
    for ell in (1, 2, 3):
        caps = {ell: limit, ell + 1: limit}
        got, want = _outcome(cache.kernel, inst, caps), _outcome(links._kernel, G, ell, caps)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert links._arc_windows(G, got, ell) == links._arc_windows(G, want, ell)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=9))
def test_shape_is_the_size_of_the_cached_link_graph(G):
    # the instance kernel spans lengths 1 to 3; 0 and 3 and up read their own kernels
    ells = _lengths(G, 5)
    totals = _walks(G, 6)[0]
    counts = {c for ell in ells for c in (totals[ell], totals[ell] // 2)}
    budgets = {c - d for c in counts for d in (0, 1) if c - d >= 0}
    for budget in [Caps().suite_links, *sorted(budgets)]:
        inst = CorpusInstance("g", G)
        cache = _Cache(Caps(suite_links=budget), (1, 3))
        shapes = [cache.shape(inst, ell) for ell in ells]
        for ell, shape in zip(ells, shapes):
            H = cache.graph(inst, ell)
            assert shape == (None if H is None else (H.n, H.m))


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=7, max_m=12), st.data())
def test_hub_links_are_the_links_inside_the_hub(G, data):
    edges = data.draw(st.sets(st.sampled_from(sorted(G.edge_ids)))) if G.m else set()
    verts = data.draw(st.sets(st.sampled_from(G.vertices)))
    hubs = [G.edge_subgraph(edges), G.induced_subgraph(verts)]
    hubs += [hub_subgraph(G, ell) for ell in _lengths(G, 4)]
    for s in (0, 1, 2):
        for hub in hubs:
            assert list(map(Link, _hub_links(hub, s))) == enumerate_links(hub, s)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=7, max_m=12), st.data())
def test_shunt_reach_matches_reference_on_any_hub(G, data):
    edges = data.draw(st.sets(st.sampled_from(sorted(G.edge_ids)))) if G.m else set()
    verts = data.draw(st.sets(st.sampled_from(G.vertices)))
    for hub in (G.edge_subgraph(edges), G.induced_subgraph(verts)):
        for ell in _lengths(G, 4):
            assert shunt_reach(G, ell, hub) == ref.shunt_reach(G, ell, hub)


def _corruptions(part, n, m, data):
    """The natural partition ``part`` of a link graph with ``n`` vertices and
    ``m`` edges, its parts under each other's keys, two vertex parts and two
    edge parts merged, and one vertex and one edge moved to a drawn part."""
    vparts, eparts = dict(part.vertex_parts), dict(part.edge_parts)
    vkeys, ekeys = list(vparts), list(eparts)
    out = [part, AlmostStandardPartition(
        part.ell, dict(zip(vkeys[1:] + vkeys[:1], vparts.values())),
        dict(zip(ekeys[1:] + ekeys[:1], eparts.values())))]
    for parts, keys, size, vertex_side in ((vparts, vkeys, n, True), (eparts, ekeys, m, False)):
        if len(keys) > 1:
            a, b = data.draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2, unique=True))
            merged = dict(parts)
            merged[a] = merged[a] | merged.pop(b)
            out.append(_with(part, merged, vertex_side))
        if size:
            member = data.draw(st.integers(0, size - 1))
            target = data.draw(st.sampled_from(keys))
            moved = {key: members - {member} for key, members in parts.items()}
            moved[target] |= {member}
            out.append(_with(part, moved, vertex_side))
    return out


def _with(part, parts, vertex_side):
    """``part`` with its vertex parts, or its edge parts, replaced."""
    if vertex_side:
        return AlmostStandardPartition(part.ell, parts, part.edge_parts)
    return AlmostStandardPartition(part.ell, part.vertex_parts, parts)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=9), st.data())
def test_quotient_embedding_matches_reference(G, data):
    # G without its last edge gives a lower graph that may miss keys or edges
    G2 = Multigraph(G.vertices, list(G.edges())[:-1])
    for ell in _lengths(G, 5):
        if ell < 2:
            continue
        H = link_graph(G, ell)
        lowers = [link_graph(G, ell - 2), link_graph(G2, ell - 2), link_graph(G, ell - 1)]
        for part in _corruptions(natural_partition(H), H.n, H.m, data):
            for lower in lowers:
                assert _quotient_embeds(H, part, lower) == ref.quotient_embeds(H, part, lower)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=9), st.data())
def test_almost_standard_check_matches_reference(G, data):
    for ell in _lengths(G, 5):
        if ell < 2:
            continue
        H = link_graph(G, ell)
        for part in _corruptions(natural_partition(H), H.n, H.m, data):
            assert _outcome(verify_almost_standard, H, part) == _outcome(
                ref.verify_almost_standard, H, part)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=9))
def test_natural_partition_on_kernel_ids_matches_reference(G):
    inst = CorpusInstance("g", G)
    cache = _Cache(Caps(), (0, 6))
    for ell in _lengths(G, 5):
        if ell < 2:
            continue
        H, lower = link_graph(G, ell), link_graph(G, ell - 2)
        want = ref.natural_partition(H)
        middles = enumerate_links(G, ell - 1)
        edge_of = {lab: k for k, (_, _, lab) in enumerate(H.edges)}
        labels = enumerate_links(G, ell + 1)
        # a kernel pruned below ell - 2, and the unpruned one of the instance
        for levels in (links._kernel(G, ell - 2, {ell + 1: ARC_BUDGET}),
                       cache.link_levels(inst, ell - 2, ell + 1)):
            vpart, epart = construction._natural_parts(levels, ell)
            vparts, eparts = {}, {}
            for i, x in enumerate(vpart):
                vparts.setdefault(lower.vertices[x], set()).add(i)
            for q, y in zip(labels, epart):
                eparts.setdefault(middles[y], set()).add(edge_of[q])
            assert vparts == want.vertex_parts and eparts == want.edge_parts
            check, embeds = construction._natural_check(
                levels, ell, lower.vertices.__getitem__, middles.__getitem__,
                H.vertices.__getitem__)
            assert check == ref.verify_almost_standard(H, want)
            assert embeds == ref.quotient_embeds(H, want, lower)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_n=6, max_m=9), st.data())
def test_natural_iso_matches_reference(G, data):
    for ell in _lengths(G, 3):
        if ell < 1:
            continue
        A, C = ref.arc_digraph(G, ell), iterated_line_digraph(G, ell)
        assert ref.natural_iso(A, C) and digraph_natural_iso_check(G, ell)
        chains = [C]
        if C.arcs:
            k = data.draw(st.integers(0, len(C.arcs) - 1))
            chains.append(ChainDigraph(C.depth, C.vertices, C.arcs[:k] + C.arcs[k + 1:]))
        if len(C.vertices) > 1:
            a, b = data.draw(st.lists(st.integers(0, len(C.vertices) - 1), min_size=2,
                                      max_size=2, unique=True))
            swapped = list(C.vertices)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            chains.append(ChainDigraph(C.depth, tuple(swapped), C.arcs))
        levels = links._kernel(G, ell, {ell + 1: ARC_BUDGET})
        for chain_digraph in chains:
            assert construction._chains_match(G, levels, ell, chain_digraph) == ref.natural_iso(
                A, chain_digraph)


def _outcome(fn, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except LinkGraphError as exc:
        return type(exc), str(exc)


@settings(max_examples=50, deadline=None)
@given(multigraphs(max_n=6, max_m=9), st.sampled_from([DEFAULT_CHROMATIC_CAP, 3]))
def test_recursive_colouring_matches_the_per_length_reference(G, cap):
    totals = _walks(G, 7)[0]
    counts = totals[:1] + [t // 2 for t in totals[1:]]
    for ell in _lengths(G, 6, 1500):
        # no limit, and a limit at and one below each link count the recursion checks
        limits = {c - d for c in counts[ell % 2 : ell + 2] for d in (0, 1) if c >= d}
        for limit in [None, *sorted(limits)]:
            got = _outcome(recursive_chromatic_bound, G, ell, cap, limit)
            want = _outcome(reference_coloring.recursive_chromatic_bound, G, ell, cap, limit)
            if isinstance(want, tuple):
                assert got == want
                continue
            H, R = got.graph, want.graph
            assert (H.ell, H.vertices, H.edges, H.index) == (R.ell, R.vertices, R.edges, R.index)
            assert (got.ell, got.coloring, got.exact_base, got.base_kind, got.base_value) == (
                want.ell, want.coloring, want.exact_base, want.base_kind, want.base_value)


@pytest.mark.parametrize("G, ell", [(petersen(), 6), (complete(4), 5), (wheel(5), 4),
                                    (path(5), 7), (parallel_bridge(), 0)])
def test_recursive_colouring_builds_the_kernel_once(G, ell, monkeypatch):
    want = reference_coloring.recursive_chromatic_bound(G, ell)
    builds = []
    real = links._arc_levels

    def counting(*args):
        builds.append(args[2:])
        return real(*args)

    monkeypatch.setattr(links, "_arc_levels", counting)
    for module in (coloring, construction):
        monkeypatch.setattr(module, "link_graph", None)
    monkeypatch.setattr(Link, "middle_segment", None)
    got = recursive_chromatic_bound(G, ell)
    assert builds == [(ell % 2, ell + 1)]
    assert got.graph.same_labeled_graph(want.graph) and got.coloring == want.coloring


def test_star_costs_its_output():
    star = Multigraph([], [(f"e{k}", "c", f"l{k}") for k in range(2000)])
    assert enumerate_arcs(star, 3, 10) == []
    assert enumerate_links(star, 3, 10) == []
    assert not has_arc(star, 3) and has_arc(star, 2)


def test_counts_without_enumerating():
    totals, _ = _walks(petersen(), 14)
    assert totals == [10] + [30 * 2 ** (ell - 1) for ell in range(1, 15)]
    assert totals[14] == 2 * 122_880
