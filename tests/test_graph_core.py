import ast
import itertools
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sfvs import exact_fvs, graph_core
from sfvs.exact_fvs import Multigraph
from sfvs.generators import expected_order
from sfvs.graph_core import (
    GraphError,
    LabeledGraph,
    _components,
    _forest_paths,
    _label_index,
    _subset_positions,
    build_graph,
    contract_edges,
    export_dot,
    export_edgelist,
    find_cycle,
    import_edgelist,
    is_forest,
    relabel,
)
from sfvs.pairable_forest import forest_plus, forest_plusplus, forest_sierpinski
from sfvs.triangle_forest import StructureReport, forest_triangle, fvs_triangle3, structure_report
from sfvs.verify_cli import _BUILDERS


def path_graph(k):
    verts = [str(i) for i in range(k)]
    return build_graph(verts, [(str(i), str(i + 1)) for i in range(k - 1)])


def cycle_graph(k):
    verts = [str(i) for i in range(k)]
    return build_graph(verts, [(str(i), str((i + 1) % k)) for i in range(k)])


def test_build_graph_basics():
    g = build_graph(["b", "a", "c"], [("a", "b"), ("b", "a"), ("b", "c")])
    assert g.order == 3
    assert g.size == 2
    assert g.vertices() == ["a", "b", "c"]
    assert g.neighbors("b") == ("a", "c")
    assert g.degree("a") == 1
    assert "a" in g and "z" not in g
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.edges() == [("a", "b"), ("b", "c")]


def test_build_graph_coerces_labels():
    g = build_graph([1, 2], [(1, 2)])
    assert g.vertices() == ["1", "2"]


def test_build_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        build_graph(["a"], [("a", "a")])
    with pytest.raises(GraphError):
        build_graph(["a"], [("a", "b")])


def test_build_graph_error_texts_and_order():
    # the loop check comes first, even when the vertex is undeclared
    for vertices, edges, message in [
        ([], [("x", "x")], "self-loop at 'x'"),
        (["a"], [("a", "b")], "edge endpoint 'b' is not a declared vertex"),
        (["a"], [("c", "a")], "edge endpoint 'c' is not a declared vertex"),
    ]:
        with pytest.raises(GraphError) as exc:
            build_graph(vertices, edges)
        assert str(exc.value) == message
    assert build_graph(["a", "a", "b"], [("a", "b")]).vertices() == ["a", "b"]


def test_label_index_rejects_a_repeated_label():
    with pytest.raises(GraphError) as exc:
        _label_index(["a", "b", "a"])
    assert str(exc.value) == "repeated vertex label 'a'"


def test_label_index_rejects_a_repeated_sorted_label():
    # sorted labels skip the map, but not the repeat check
    with pytest.raises(GraphError) as exc:
        _label_index(["a", "a", "b"])
    assert str(exc.value) == "repeated vertex label 'a'"


def test_label_index_positions_are_the_map_ints():
    # sorted labels take their positions without a lookup, and the graph
    # builds its map over them; either way each position is the int
    # object of the graph's map
    ordered = [f"{k:03d}" for k in range(300)]
    for labels in (ordered, ordered[::-1], ordered[1:] + ordered[:1]):
        names, rank, pos = _label_index(labels)
        g = LabeledGraph(names, rank, [()] * len(names), 0)
        assert names == ordered
        assert g._index == dict(zip(ordered, range(300)))
        assert all(i is g._index[v] for v, i in zip(labels, pos))


# the fixture holds only a function, so sharing it across examples is safe
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.text("abc", max_size=3), min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=30),
)
def test_build_graph_equals_build_indexed(reference_build_indexed, vertices, raw):
    # raw pairs repeat and reverse edges; vertices may repeat labels
    labels = list(dict.fromkeys(vertices))
    n = len(labels)
    pairs = [(u % n, v % n) for u, v in raw if u % n != v % n]
    g = build_graph(vertices, [(labels[u], labels[v]) for u, v in pairs])
    build_indexed = reference_build_indexed
    for h in (
        build_indexed(labels, pairs),
        build_indexed(labels[::-1], [(n - 1 - u, n - 1 - v) for u, v in pairs]),
    ):
        assert g == h
        assert g.vertices() == h.vertices()
        assert g.size == h.size
    assert g.edges() == sorted({tuple(sorted((labels[u], labels[v]))) for u, v in pairs})


def test_neighbors_of_missing_vertex():
    g = build_graph(["a"], [])
    with pytest.raises(GraphError):
        g.neighbors("b")


def test_equality_is_label_based():
    g = build_graph(["a", "b"], [("a", "b")])
    h = build_graph(["b", "a"], [("b", "a")])
    assert g == h
    assert g != build_graph(["a", "b"], [])


def test_induced_subgraph():
    g = cycle_graph(5)
    h = g.induced({"0", "1", "2"})
    assert h.order == 3
    assert h.edges() == [("0", "1"), ("1", "2")]
    with pytest.raises(GraphError):
        g.induced({"0", "9"})


def test_components():
    g = build_graph(["a", "b", "c", "d", "e"], [("a", "b"), ("d", "c")])
    assert g.components() == [["a", "b"], ["c", "d"], ["e"]]


def test_forest_and_cycle_detection():
    assert is_forest(path_graph(6))
    assert not is_forest(cycle_graph(4))
    assert find_cycle(path_graph(6)) is None
    cyc = find_cycle(cycle_graph(4))
    assert cyc is not None
    assert cyc[0] == cyc[-1]
    assert len(cyc) == 5


def test_cycle_detection_on_subset():
    g = cycle_graph(5)
    assert is_forest(g, {"0", "1", "2"})
    assert find_cycle(g, {"0", "1", "2"}) is None
    assert not is_forest(g, set(g.vertices()))


def test_two_vertices_never_report_a_false_cycle():
    g = build_graph(["a", "b"], [("a", "b")])
    assert find_cycle(g) is None


def test_relabel():
    g = build_graph(["a", "b"], [("a", "b")])
    h = relabel(g, str.upper)
    assert h.vertices() == ["A", "B"]
    with pytest.raises(GraphError):
        relabel(g, lambda v: "same")


def test_contract_edges_triangle_with_tail():
    # contracting the tail edge of a triangle-plus-edge keeps the triangle
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    h = contract_edges(g, [("c", "d")], lambda u, v: "cd")
    assert h.order == 3
    assert h.edges() == [("a", "b"), ("a", "cd"), ("b", "cd")]


def test_contract_edges_rejects_non_edges_and_overlap():
    g = path_graph(4)
    with pytest.raises(GraphError):
        contract_edges(g, [("0", "2")], lambda u, v: "x")
    with pytest.raises(GraphError):
        contract_edges(g, [("0", "1"), ("1", "2")], lambda u, v: u + v)


def test_contract_edges_rejects_name_collisions():
    g = path_graph(4)
    with pytest.raises(GraphError):
        contract_edges(g, [("1", "2")], lambda u, v: "0")


def test_edgelist_round_trip():
    g = build_graph(["a", "b", "lonely"], [("a", "b")])
    text = export_edgelist(g)
    assert text == "a\tb\nlonely\n"
    assert import_edgelist(text) == g
    assert import_edgelist("# comment\n\n" + text) == g


def test_import_edgelist_rejects_garbage():
    with pytest.raises(GraphError):
        import_edgelist("a\tb\tc\n")


def test_export_dot():
    g = build_graph(["a", "b", "x"], [("a", "b")])
    text = export_dot(g)
    assert '"a" -- "b";' in text
    assert '"x";' in text
    assert text.startswith("graph")


@given(st.integers(2, 8))
def test_path_graphs_are_forests(k):
    g = path_graph(k)
    assert is_forest(g)
    assert g.size == g.order - 1


def test_multigraph_round_trip_and_degrees():
    g = cycle_graph(3)
    mg = Multigraph.from_labeled(g)
    assert g.vertices() == ["0", "1", "2"]
    assert sum(mg.deg) // 2 == 3
    assert [mg.degree(v) for v in mg.live_vertices()] == [2, 2, 2]

    mg.add_edge(0, 1)
    assert mg.degree(0) == 3
    assert sum(mg.deg) // 2 == 4

    before = _snapshot(mg)
    with pytest.raises(GraphError, match="self-loop at 2"):
        mg.add_edge(2, 2)
    assert _snapshot(mg) == before

    mg.remove_vertex(1)
    assert mg.live_vertices() == [0, 2]
    assert mg.degree(0) == 1


def test_multigraph_copy_is_independent():
    mg = Multigraph(3)
    mg.add_edge(0, 1)
    clone = mg.copy()
    clone.remove_vertex(0)
    assert mg.live_vertices() == [0, 1, 2]
    assert clone.live_vertices() == [1, 2]


def _recount(mg):
    deg = [
        sum(2 * m if u == v else m for u, m in nbrs.items())
        for v, nbrs in enumerate(mg.adj)
    ]
    size = sum(m for v, nbrs in enumerate(mg.adj) for u, m in nbrs.items() if u >= v)
    return deg, size


def _snapshot(mg):
    return [dict(d) for d in mg.adj], list(mg.alive), list(mg.deg), list(mg.bits), sum(mg.deg) // 2


def assert_masks_current(mg):
    # bits[v] is the mask of adj[v]'s keys, and a dead vertex reads 0
    assert mg.bits == [sum(1 << u for u in nbrs) for nbrs in mg.adj]
    assert all(mg.bits[v] == 0 for v, alive in enumerate(mg.alive) if not alive)


def assert_counts_current(mg):
    deg, size = _recount(mg)
    assert mg.deg == deg
    assert [mg.degree(v) for v in range(len(deg))] == deg
    assert sum(mg.deg) // 2 == size
    assert_masks_current(mg)


_MULTIGRAPH_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "copy", "restrict"]),
        st.integers(0, 7),
        st.integers(0, 7),
        st.integers(1, 3),
    ),
    max_size=40,
)


@given(st.integers(1, 8), _MULTIGRAPH_STEPS)
def test_multigraph_counts_stay_current(n, steps):
    # repeated pairs make parallel edges; add_edge with u == v is refused
    # and leaves the graph as it was
    mg = Multigraph(n)
    copies = []
    for op, a, b, mult in steps:
        live = mg.live_vertices()
        if not live:
            break
        u, v = live[a % len(live)], live[b % len(live)]
        if op == "add" and u == v:
            before = _snapshot(mg)
            with pytest.raises(GraphError):
                for _ in range(mult):
                    mg.add_edge(u, v)
            assert _snapshot(mg) == before
        elif op == "add":
            for _ in range(mult):
                mg.add_edge(u, v)
        elif op == "remove":
            mg.remove_vertex(u)
        elif op == "copy":
            copies.append((mg.copy(), _snapshot(mg)))
        else:
            comps = [sorted(c) for c in _components(mg.adj, live, mg.alive)]
            comp = comps[a % len(comps)]
            before = _snapshot(mg)
            sub = mg.restrict(comp)
            assert _snapshot(mg) == before
            assert sub.live_vertices() == comp
            assert sub.adj == [mg.adj[x] if x in comp else {} for x in range(n)]
            mg = sub
        assert_counts_current(mg)
        for clone, snap in copies:
            assert _snapshot(clone) == snap
            assert_counts_current(clone)


def _random_multigraph(rng, n):
    """A multigraph on n vertices with parallel edges, some vertices dead."""
    mg = Multigraph(n)
    for _ in range(rng.randrange(2 * n)):
        u, v = rng.sample(range(n), 2)
        for _ in range(rng.randint(1, 3)):
            mg.add_edge(u, v)
    for v in rng.sample(range(n), rng.randrange(n // 2)):
        mg.remove_vertex(v)
    return mg


def _closed_views(mg):
    """What a clique grown from each vertex reads: its neighbours in adj
    order and the masks of those neighbours on its neighbourhood."""
    return [
        (tuple(nbrs), tuple(mg.bits[u] & mg.bits[v] for u in nbrs))
        for v, nbrs in enumerate(mg.adj)
    ]


def assert_dirty_covers(mg, views):
    # every live vertex whose view differs from views, taken when mg or
    # the graph it was copied from was made, is dirty; restrict() kills
    # other components without marking them, and no clique grows from a
    # dead vertex
    for v, view in enumerate(_closed_views(mg)):
        if mg.alive[v] and view != views[v]:
            assert mg.dirty >> v & 1, v


def test_multigraph_masks_stay_current():
    # s(6,4) as built, then a random history of new and parallel edges
    # and removals, from an empty graph and from a labeled one, with
    # copies and restrictions; the dirty mask covers every vertex whose
    # closed neighbourhood changed since the last copy
    g = _BUILDERS["s"](6, 4)
    assert Multigraph.from_labeled(g).bits == [sum(1 << u for u in row) for row in g._nbrs]
    rng = random.Random(18)
    marked = 0
    for trial in range(200):
        n = rng.randint(2, 24)
        if trial % 2:
            mg = Multigraph(n)
        else:
            pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
            mg = Multigraph.from_labeled(build_graph(range(n), pairs))
        assert_masks_current(mg)
        assert mg.dirty == 0
        views = _closed_views(mg)
        for _ in range(3 * n):
            live = mg.live_vertices()
            if len(live) < 2:
                break
            u = rng.choice(live)
            step = rng.random()
            if step < 0.15:
                mg.remove_vertex(u)
            elif step < 0.45 and mg.adj[u]:
                v = rng.choice(list(mg.adj[u]))
                for _ in range(rng.randint(1, 2)):
                    mg.add_edge(u, v)
            elif step < 0.85:
                mg.add_edge(u, rng.choice([v for v in live if v != u]))
            elif step < 0.92:
                clone = mg.copy()
                assert_masks_current(clone)
                assert clone.dirty == 0
                views = _closed_views(clone)
                clone.remove_vertex(u)
                assert_masks_current(clone)
                assert_dirty_covers(clone, views)
                # the history goes on from the copy, once the original is
                # seen to be current after the copy's removal
                assert_masks_current(mg)
                mg = clone
            else:
                comps = [sorted(c) for c in _components(mg.adj, live, mg.alive)]
                mg = mg.restrict(rng.choice(comps))
            assert_masks_current(mg)
            assert_dirty_covers(mg, views)
            marked += mg.dirty.bit_count()
    assert marked > 1000


def test_multigraph_build_peaks_near_the_memory_it_keeps():
    # each mask is built on its own: a table of every power of two below
    # the order would lift the peak to about 1.6 times what the search
    # graph keeps on s(6,5) (1.00 measured without it)
    g = _BUILDERS["s"](6, 5)
    tracemalloc.start()
    try:
        mg = Multigraph.from_labeled(g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mg.bits) == g.order
    assert peak <= 1.1 * held, (held, peak)


def test_multigraph_components_match_the_reference(reference_multigraph_components):
    # the solver's split runs the graph core's search over adj and alive
    rng = random.Random(16)
    for _ in range(300):
        mg = _random_multigraph(rng, rng.randint(2, 24))
        live = mg.live_vertices()
        comps = [sorted(c) for c in _components(mg.adj, live, mg.alive)]
        assert comps == reference_multigraph_components(mg, live)
        union = sorted(x for c in comps[::2] for x in c)
        for part in (comps[0], comps[-1], union):
            sub = mg.restrict(part)
            got = [sorted(c) for c in _components(sub.adj, part, sub.alive)]
            assert got == reference_multigraph_components(sub, sub.live_vertices())
            assert sorted(x for c in got for x in c) == part


def test_unknown_vertices_of_any_type_raise_graph_error():
    g = build_graph(["00", "01", "10"], [("00", "01")])
    for check in (is_forest, find_cycle, lambda g, s: g.induced(s)):
        for subset, message in [
            (["00", 5, "zz"], "no such vertex: 'zz'"),
            ([5, "zz"], "no such vertex: 'zz'"),
            ([5], "no such vertex: 5"),
            ([7, 5], "no such vertex: 5"),
            (["zz", "01", "ab"], "no such vertex: 'ab'"),
        ]:
            with pytest.raises(GraphError) as exc:
                check(g, subset)
            assert str(exc.value) == message


def _assert_same_core(g, ref, core, subsets):
    """g and its label-keyed reference agree on every read and check."""
    assert g.vertices() == ref.vertices()
    assert (g.order, g.size) == (ref.order, ref.size)
    assert g.edges() == ref.edges()
    assert g.components() == ref.components()
    for v in ref.vertices():
        assert g.neighbors(v) == ref.neighbors(v)
        assert g.degree(v) == ref.degree(v)
    mg = Multigraph.from_labeled(g)
    want, want_labels = core.from_labeled(ref)
    assert g.vertices() == want_labels
    assert [list(d.items()) for d in mg.adj] == [list(d.items()) for d in want.adj]
    assert (mg.deg, sum(mg.deg) // 2, mg.alive) == (want.deg, sum(want.deg) // 2, want.alive)
    for subset in subsets:
        outcomes = []
        for graph, forest, cycle in (
            (g, is_forest, find_cycle),
            (ref, core.is_forest, core.find_cycle),
        ):
            try:
                sub = graph.induced(subset)
            except GraphError as exc:
                got = [str(exc)]
                for check in (forest, cycle):
                    with pytest.raises(GraphError) as err:
                        check(graph, subset)
                    got.append(str(err.value))
                outcomes.append(got)
                continue
            outcomes.append(
                [
                    sub.vertices(),
                    sub.edges(),
                    sub.components(),
                    [sub.neighbors(v) for v in sub.vertices()],
                    forest(graph, subset),
                    cycle(graph, subset),
                ]
            )
        assert outcomes[0] == outcomes[1]
    assert is_forest(g) == core.is_forest(ref)
    assert find_cycle(g) == core.find_cycle(ref)


_LABELS = st.text("ab01:", max_size=3)


# the fixture holds only functions, so sharing it across examples is safe
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(_LABELS, min_size=1, max_size=12),
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=40),
    st.lists(st.lists(_LABELS, max_size=10), max_size=4),
)
def test_graph_core_matches_the_label_keyed_reference(reference_graph_core, vertices, raw, subsets):
    # subsets draw from the same alphabet, so some name vertices that are
    # not in the graph
    labels = list(dict.fromkeys(vertices))
    n = len(labels)
    edges = [(labels[u % n], labels[v % n]) for u, v in raw if u % n != v % n]
    g = build_graph(vertices, edges)
    ref = reference_graph_core.build(vertices, edges)
    half = [v for k, v in enumerate(labels) if k % 2]
    _assert_same_core(g, ref, reference_graph_core, [*subsets, half, labels])


def _small_instances(limit=300):
    for family in ("s", "plus", "pp", "hat"):
        for p in range(1 if family != "hat" else 2, 13):
            for n in range(0 if family in ("s", "hat") else 1, 9):
                if p == 1 and n > 4:
                    break
                if expected_order(family, p, n) <= limit:
                    yield family, p, n


def test_family_instances_match_the_label_keyed_reference(reference_graph_core):
    rng = random.Random(8)
    instances = list(_small_instances())
    assert len(instances) > 60
    for family, p, n in instances:
        g = _BUILDERS[family](p, n)
        ref = reference_graph_core.family(family, p, n)
        labels = ref.vertices()
        subsets = [
            labels[::2],
            rng.sample(labels, len(labels) // 2),
            rng.sample(labels, (3 * len(labels)) // 4),
        ]
        _assert_same_core(g, ref, reference_graph_core, subsets)


# The certificate check at the sizes the certify benchmark runs: each
# construction's forest, the forest with one deleted vertex put back (a
# cycle, or not), and a linear forest with two vertices of degree 3.
_CERTIFY_FORESTS = {
    ("s", 9, 5): lambda g: forest_sierpinski(9, 5),
    ("plus", 8, 5): lambda g: forest_plus(8, 5),
    ("pp", 6, 5): lambda g: forest_plusplus(6, 5),
    ("hat", 3, 8): lambda g: set(g.vertices()) - fvs_triangle3(8),
    ("hat", 6, 5): lambda g: forest_triangle(6, 5, graph=g),
}


def _same_walks(g, subset, ref):
    keep, mark = _subset_positions(g, subset)
    cycle = find_cycle(g, subset)
    assert cycle == ref.cycle(g, keep, mark)
    sub = g.induced(subset)
    assert sub._labels == [g._labels[k] for k in keep]
    assert sub._nbrs == ref.induced_rows(g, keep, mark)
    return cycle


@pytest.mark.parametrize("family,p,n", list(_CERTIFY_FORESTS))
def test_certificate_walks_match_the_filter_reference(family, p, n, reference_mark_walks):
    ref = reference_mark_walks
    g = _BUILDERS[family](p, n)
    forest = _CERTIFY_FORESTS[family, p, n](g)
    assert _same_walks(g, forest, ref) is None
    deleted = sorted(set(g.vertices()) - forest)
    cycles = [
        _same_walks(g, forest | {v}, ref)
        for v in random.Random(17).sample(deleted, min(len(deleted), 12))
    ]
    assert any(cycles)
    if family != "hat" or p < 4:
        return
    # join interior vertices of two paths: no cycle, two vertices of degree 3
    sub = g.induced(forest)
    a, b = (next(v for v in comp if sub.degree(v) == 2) for comp in sub.components()[:2])
    a, b = g._index[a], g._index[b]
    rows = list(g._nbrs)
    rows[a], rows[b] = tuple(sorted(rows[a] + (b,))), tuple(sorted(rows[b] + (a,)))
    mutant = LabeledGraph(g._labels, g._index, rows, g.size + 1)
    keep, mark = _subset_positions(mutant, forest)
    assert ref.cycle(mutant, keep, mark) is None
    with pytest.raises(GraphError) as want:
        ref.linear_degrees(mutant, keep, mark)
    with pytest.raises(GraphError) as got:
        forest_triangle(p, n, graph=mutant)
    assert str(got.value) == str(want.value)
    with pytest.raises(GraphError) as got:
        structure_report(p, n, graph=mutant)
    assert str(got.value) == str(want.value)
    # the linear forest's paths: the reference rows' components
    rep = structure_report(p, n, graph=g)
    ref_sub = LabeledGraph(
        sub._labels, sub._index, ref.induced_rows(g, *_subset_positions(g, forest)), sub.size
    )
    paths = sorted(Counter(map(len, ref_sub.components())).items())
    assert (rep.total, rep.actual_paths, rep.problems) == (len(forest), tuple(paths), ())


# The linear forest check in one walk against the walks it replaces: the
# order check, the cycle search, the induced-degree count and the
# component search, failing in that order.


def _reference_path_orders(g, subset, order, ref):
    if g.order != order:
        raise GraphError(f"graph has order {g.order}, expected {order}")
    keep, mark = _subset_positions(g, subset)
    cycle = ref.cycle(g, keep, mark)
    if cycle is not None:
        raise GraphError(f"construction induced a cycle: {cycle}")
    ref.linear_degrees(g, keep, mark)
    return map(len, _components(g._nbrs, keep, mark))


def _outcome(check, *args):
    """The Counter of path orders check returns, or its GraphError text."""
    try:
        return Counter(check(*args))
    except GraphError as exc:
        return str(exc)


def _path_orders(g, subset, order):
    """The linear-forest check: the construction check, then the raise of
    triangle_forest._checked_forest on a vertex of degree above 2."""
    orders, over = _forest_paths(g, subset, order)
    if over is not None:
        raise GraphError(f"construction is not a linear forest at {over!r}")
    return orders


def _same_paths(g, subset, ref, order=None):
    order = g.order if order is None else order
    want = _outcome(_reference_path_orders, g, subset, order, ref)
    assert _outcome(_path_orders, g, subset, order) == want
    return want


def test_path_walk_matches_the_reference_on_random_graphs(reference_mark_walks):
    rng = random.Random(25)
    kinds = Counter()
    for _ in range(800):
        k = rng.randint(1, 14)
        # labels drawn at random, so index order is not insertion order
        labels = rng.sample(range(100), k)
        if rng.random() < 0.5:
            density = rng.choice((0.1, 0.2, 0.35))
            edges = [e for e in itertools.combinations(labels, 2) if rng.random() < density]
        else:
            # a random forest: acyclic, often with vertices of degree 3
            edges = [(v, rng.choice(labels[:i])) for i, v in enumerate(labels[1:], 1)]
            edges = [e for e in edges if rng.random() < 0.8]
        g = build_graph(labels, edges)
        subset = rng.sample(g.vertices(), rng.randint(0, k))
        keep, mark = _subset_positions(g, subset)
        assert find_cycle(g, subset) == reference_mark_walks.cycle(g, keep, mark)
        out = _same_paths(g, subset, reference_mark_walks)
        if isinstance(out, str):
            kinds["cycle" if "cycle" in out else "degree"] += 1
        else:
            kinds["several paths" if len(out) > 1 else "paths"] += 1
        wrong = _same_paths(g, subset, reference_mark_walks, k + 1)
        assert wrong == f"graph has order {k}, expected {k + 1}"
    assert set(kinds) == {"paths", "several paths", "cycle", "degree"}
    assert min(kinds.values()) >= 50, kinds


@pytest.mark.parametrize("p,n", [(4, 2), (4, 3), (5, 3), (6, 4)])
@pytest.mark.parametrize("mutant", ["cyclic_linear_forest", "short_linear_forest"])
def test_path_walk_matches_the_reference_on_broken_forests(
    request, mutant, p, n, reference_mark_walks
):
    from sfvs import triangle_forest

    request.getfixturevalue(mutant)
    g = _BUILDERS["hat"](p, n)
    labels = triangle_forest._labels(triangle_forest._linear_forest(p, n), p, n)
    want = _same_paths(g, labels, reference_mark_walks)
    if mutant == "cyclic_linear_forest":
        assert want.startswith("construction induced a cycle: [")
        for check in (forest_triangle, structure_report):
            with pytest.raises(GraphError) as got:
                check(p, n, graph=g)
            assert str(got.value) == want
    else:
        rep = structure_report(p, n, graph=g)
        assert (rep.total, rep.actual_paths) == (len(labels), tuple(sorted(want.items())))
        assert not rep.ok


@pytest.mark.parametrize("p", range(4, 10))
def test_structure_reports_match_the_reference_walks(p, reference_mark_walks):
    for n in range(2, 6):
        g = _BUILDERS["hat"](p, n)
        rep = structure_report(p, n, graph=g)
        forest = forest_triangle(p, n, graph=g)
        paths = tuple(sorted(_same_paths(g, forest, reference_mark_walks).items()))
        assert rep == StructureReport(p, n, len(forest), paths, paths, ())


def _sibling_imports(path):
    """The sibling modules a module's source imports, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_module_layers_are_pinned():
    # the layer graph README and ROADMAP describe: the graph core and
    # addressing import no sibling, the constructions build on them, the
    # solver reads the graph core alone, and only the CLI imports them all
    package = Path(graph_core.__file__).parent
    layers = {
        path.stem: _sibling_imports(path)
        for path in package.glob("*.py")
        if not path.stem.startswith("__")
    }
    assert layers == {
        "addressing": set(),
        "graph_core": set(),
        "generators": {"addressing", "graph_core"},
        "pairable_forest": {"addressing"},
        "triangle_forest": {"addressing", "generators", "graph_core"},
        "exact_fvs": {"addressing", "graph_core"},
        "verify_cli": {
            "addressing",
            "exact_fvs",
            "generators",
            "graph_core",
            "pairable_forest",
            "triangle_forest",
        },
    }
    # the solver's scratch multigraph lives beside the search; the graph
    # core defines the labeled graph and its error alone
    assert "Multigraph" in exact_fvs.__all__
    assert exact_fvs.Multigraph.__module__ == "sfvs.exact_fvs"
    assert "Multigraph" not in graph_core.__all__
    assert not hasattr(graph_core, "Multigraph")
    tree = ast.parse(Path(graph_core.__file__).read_text(encoding="utf-8"))
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert classes == {"GraphError", "LabeledGraph"}
