import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sfvs.exact_fvs import _restrict
from sfvs.generators import expected_order
from sfvs.graph_core import (
    GraphError,
    LabeledGraph,
    Multigraph,
    _components,
    _label_index,
    build_graph,
    contract_edges,
    export_dot,
    export_edgelist,
    find_cycle,
    import_edgelist,
    is_forest,
    relabel,
)
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
    mg, labels = Multigraph.from_labeled(g)
    assert labels == ["0", "1", "2"]
    assert mg.size == 3
    assert [mg.degree(v) for v in mg.live_vertices()] == [2, 2, 2]

    mg.add_edge(0, 1)
    assert mg.degree(0) == 3
    assert mg.size == 4

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
    return [dict(d) for d in mg.adj], list(mg.alive), list(mg.deg), mg.size


def assert_counts_current(mg):
    deg, size = _recount(mg)
    assert mg.deg == deg
    assert [mg.degree(v) for v in range(len(deg))] == deg
    assert mg.size == size


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
                mg.add_edge(u, v, mult)
            assert _snapshot(mg) == before
        elif op == "add":
            mg.add_edge(u, v, mult)
        elif op == "remove":
            mg.remove_vertex(u)
        elif op == "copy":
            copies.append((mg.copy(), _snapshot(mg)))
        else:
            comps = [sorted(c) for c in _components(mg.adj, live, mg.alive)]
            comp = comps[a % len(comps)]
            before = _snapshot(mg)
            sub = _restrict(mg, comp)
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
        mg.add_edge(u, v, rng.randint(1, 3))
    for v in rng.sample(range(n), rng.randrange(n // 2)):
        mg.remove_vertex(v)
    return mg


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
            sub = _restrict(mg, part)
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
    mg, labels = Multigraph.from_labeled(g)
    want, want_labels = core.from_labeled(ref)
    assert labels == want_labels
    assert [list(d.items()) for d in mg.adj] == [list(d.items()) for d in want.adj]
    assert (mg.deg, mg.size, mg.alive) == (want.deg, want.size, want.alive)
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
