import tracemalloc

import pytest

from sfvs import generators
from sfvs.addressing import FAMILIES, hat_labels, word_separator
from sfvs.graph_core import GraphError, is_forest, relabel
from sfvs.generators import (
    expected_order,
    expected_size,
    nonclique_edges,
    sierpinski,
    sierpinski_plus,
    sierpinski_plusplus,
    triangle,
)
from sfvs.verify_cli import _BUILDERS


def is_clique(g) -> bool:
    return g.size == g.order * (g.order - 1) // 2


def is_path(g) -> bool:
    if g.order == 1:
        return g.size == 0
    degs = sorted(g.degree(v) for v in g.vertices())
    return (
        is_forest(g)
        and len(g.components()) == 1
        and degs[:2] == [1, 1]
        and all(d == 2 for d in degs[2:])
    )


def test_base_family_small_levels():
    g = sierpinski(3, 0)
    assert g.vertices() == ["ε"] and g.size == 0
    assert is_clique(sierpinski(5, 1))
    assert sierpinski(1, 4).order == 1


def test_base_family_level_two_exact_edges():
    g = sierpinski(3, 2)
    within = [
        (s + a, s + b)
        for s in "012"
        for a, b in (("0", "1"), ("0", "2"), ("1", "2"))
    ]
    cross = [("01", "10"), ("02", "20"), ("12", "21")]
    assert g.edges() == sorted(within + cross)


def test_two_symbol_graphs_are_paths():
    for n in range(1, 6):
        g = sierpinski(2, n)
        assert g.order == 2 ** n
        assert is_path(g)


def test_degree_profile():
    p, n = 4, 3
    g = sierpinski(p, n)
    extremes = {str(i) * n for i in range(p)}
    for v in g.vertices():
        assert g.degree(v) == (p - 1 if v in extremes else p)


def test_self_similar_prefix_blocks():
    g = sierpinski(3, 2)
    block = g.induced({v for v in g.vertices() if v.startswith("0")})
    assert block == relabel(sierpinski(3, 1), lambda v: "0" + ("" if v == "ε" else v))


def test_apex_family():
    g = sierpinski_plus(3, 2)
    assert g.order == 10 and g.size == 15
    assert g.degree("w") == 3
    for i in range(3):
        assert g.has_edge("w", str(i) * 2)
    with pytest.raises(ValueError):
        sierpinski_plus(3, 0)


def test_apex_family_five_cycle():
    g = sierpinski_plus(2, 2)
    assert g.order == 5 and g.size == 5
    assert all(g.degree(v) == 2 for v in g.vertices())
    assert len(g.components()) == 1


def test_extra_copy_family():
    g = sierpinski_plusplus(3, 2)
    assert g.order == 12 and g.size == 18
    for i in range(3):
        assert g.has_edge(f"3:{i}", f"{i}{i}")
    assert g.induced({v for v in g.vertices() if v.startswith("3:")}) == relabel(
        sierpinski(3, 1), lambda v: "3:" + ("" if v == "ε" else v)
    )
    with pytest.raises(ValueError):
        sierpinski_plusplus(3, 0)


def test_extra_copy_family_triangle():
    g = sierpinski_plusplus(2, 1)
    assert g.order == 3 and g.size == 3
    assert sorted(g.vertices()) == ["0", "1", "2:"]


def test_nonclique_edges_form_the_contraction_matching():
    triples = nonclique_edges(3, 2)
    assert sorted(triples) == [
        ("01", "10", ":{0,1}"),
        ("02", "20", ":{0,2}"),
        ("12", "21", ":{1,2}"),
    ]
    ends = [x for u, v, _ in triples for x in (u, v)]
    assert len(ends) == len(set(ends))


def test_nonclique_edges_cover_all_non_extremes():
    p, m = 3, 3
    triples = nonclique_edges(p, m)
    ends = {x for u, v, _ in triples for x in (u, v)}
    extremes = {str(i) * m for i in range(p)}
    assert ends == set(sierpinski(p, m).vertices()) - extremes


def test_contracted_family_level_zero_is_a_clique():
    g = triangle(4, 0)
    assert g.vertices() == ["^0", "^1", "^2", "^3"]
    assert is_clique(g)


def test_contracted_family_two_symbols_is_a_path():
    for n in range(0, 4):
        g = triangle(2, n)
        assert g.order == 2 ** n + 1
        assert is_path(g)


def test_contracted_family_level_one():
    g = triangle(3, 1)
    assert g.order == 6 and g.size == 9
    assert g.has_edge("^0", ":{0,1}")
    assert g.has_edge(":{0,1}", ":{0,2}")
    assert not g.has_edge("^0", "^1")
    assert all(g.degree(v) in (2, 4) for v in g.vertices())


@pytest.mark.parametrize("p", [2, 3, 4, 11])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_direct_edge_families_match_contraction(p, n, contracted_triangle):
    assert triangle(p, n) == contracted_triangle(p, n)


@pytest.mark.parametrize("p", range(2, 11))
@pytest.mark.parametrize("n", range(4))
def test_quotient_vertices_come_in_hat_labels_order(p, n):
    # one numbering of the quotient: the build's, the labels' and the
    # constructions' index k are the same vertex
    assert triangle(p, n).vertices() == hat_labels(p, n)


def _copy_rule(label: str, i: int, p: int) -> str:
    """Copy i's image of a level m - 1 quotient label, by the definition:
    s:{a,b} becomes i.s:{a,b}, corner j the shared :{i,j}, corner i ^i."""
    if label.startswith("^"):
        j = int(label[1:])
        return f"^{i}" if j == i else f":{{{min(i, j)},{max(i, j)}}}"
    return f"{i}{label}" if label.startswith(":") else f"{i}{word_separator(p)}{label}"


@pytest.mark.parametrize("p", range(2, 9))
@pytest.mark.parametrize("m", range(1, 5))
def test_hat_tables_copy_each_label_by_the_rule(p, m):
    below, here = hat_labels(p, m - 1), hat_labels(p, m)
    tables = generators._hat_tables(p, m)
    assert len(tables) == p
    for i, table in enumerate(tables):
        assert len(table) == len(below)
        assert [here[k] for k in table] == [_copy_rule(v, i, p) for v in below]
    # the glued copies cover level m
    assert {k for table in tables for k in table} == set(range(len(here)))
    at = [3 * k + 1 for k in range(len(here))]
    assert generators._hat_tables(p, m, at) == [[at[k] for k in t] for t in tables]


def test_triangle_checks_its_edge_count(monkeypatch):
    monkeypatch.setattr(generators, "expected_size", lambda family, p, n: 28)
    with pytest.raises(GraphError, match="number 27, expected 28"):
        triangle(3, 2)


@pytest.mark.parametrize(
    "family,p,n,order,size",
    [
        ("s", 2, 5, 32, 31),
        ("s", 9, 3, 729, 3276),
        ("plus", 3, 2, 10, 15),
        ("plus", 5, 4, 626, 1565),
        ("pp", 3, 2, 12, 18),
        ("pp", 6, 3, 252, 756),
        ("hat", 3, 2, 15, 27),
        ("hat", 5, 3, 315, 1250),
        ("hat", 2, 4, 17, 16),
    ],
)
def test_count_formulas(family, p, n, order, size):
    assert expected_order(family, p, n) == order
    assert expected_size(family, p, n) == size


@pytest.mark.parametrize("family,p,n", [("s", 3, 3), ("plus", 4, 2), ("pp", 4, 2), ("hat", 4, 2)])
def test_generated_graphs_match_count_formulas(family, p, n):
    from sfvs.generators import sierpinski as s, sierpinski_plus as plus
    from sfvs.generators import sierpinski_plusplus as pp, triangle as hat

    g = {"s": s, "plus": plus, "pp": pp, "hat": hat}[family](p, n)
    assert g.order == expected_order(family, p, n)
    assert g.size == expected_size(family, p, n)


def test_family_table_follows_families_and_feeds_the_cli():
    assert tuple(generators._FAMILY_TABLE) == FAMILIES
    assert tuple(_BUILDERS) == FAMILIES
    assert all(_BUILDERS[f] is entry[0] for f, entry in generators._FAMILY_TABLE.items())


def test_count_formulas_reject_unknown_family():
    with pytest.raises(ValueError):
        expected_order("nope", 3, 2)
    with pytest.raises(ValueError):
        expected_size("nope", 3, 2)


@pytest.mark.parametrize(
    "family,p,n,message",
    [
        ("pp", 2, 0, "level must be at least 1"),
        ("plus", 3, 0, "level must be at least 1"),
        ("s", 2, -1, "level must be at least 0"),
        ("hat", 2, -1, "level must be at least 0"),
        ("hat", 1, 2, "at least 2 symbols"),
        ("s", 0, 2, "alphabet size must be positive"),
    ],
)
def test_count_formulas_reject_what_the_builders_reject(family, p, n, message):
    with pytest.raises(ValueError, match=message):
        _BUILDERS[family](p, n)
    with pytest.raises(ValueError, match=message):
        expected_order(family, p, n)
    with pytest.raises(ValueError, match=message):
        expected_size(family, p, n)


def _grid():
    # p 1..7 x n 0..4, with invalid p and n on both sides of the domain,
    # and the comma-separated labels of p 11 and 12 at n <= 2
    cases = [(p, n) for p in range(0, 8) for n in range(-1, 5)]
    return cases + [(p, n) for p in (11, 12) for n in range(-1, 3)]


@pytest.mark.parametrize("family", ["s", "plus", "pp", "hat"])
def test_builders_match_the_string_reference(family, reference_builders):
    built = 0
    for p, n in _grid():
        try:
            want = reference_builders[family](p, n)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _BUILDERS[family](p, n)
            assert str(got.value) == str(exc)
            continue
        g = _BUILDERS[family](p, n)
        assert g == want
        assert g.vertices() == want.vertices()
        assert g.size == want.size
        built += 1
    assert built == {"s": 41, "plus": 32, "pp": 32, "hat": 36}[family]


@pytest.mark.parametrize(
    "family,p,n", [("hat", 6, 4), ("hat", 4, 5), ("s", 8, 4), ("plus", 7, 4), ("pp", 6, 4)]
)
def test_build_peaks_near_the_memory_it_keeps(family, p, n):
    # the build's transient per-vertex neighbour collections must stay
    # small next to the graph it returns
    tracemalloc.start()
    try:
        g = _BUILDERS[family](p, n)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == expected_order(family, p, n)
    assert peak <= 2.5 * held, (held, peak)


@pytest.mark.parametrize("family,p,n", [("s", 9, 5), ("hat", 6, 5)])
def test_build_streams_its_top_level(family, p, n):
    # the top level goes straight into row tuples: a flat list of every
    # top-level entry would lift the peak to about 1.45 times what the
    # graph keeps (1.15 and 1.16 measured with streaming)
    tracemalloc.start()
    try:
        g = _BUILDERS[family](p, n)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == expected_order(family, p, n)
    assert peak <= 1.3 * held, (held, peak)


@pytest.fixture
def canonical_calls(monkeypatch):
    """The row lists that generators._canonical_rows was handed."""
    calls = []
    real = generators._canonical_rows

    def spy(pos, rows):
        calls.append(rows)
        return real(pos, rows)

    monkeypatch.setattr(generators, "_canonical_rows", spy)
    return calls


@pytest.mark.parametrize("family", ["s", "plus", "pp", "hat"])
def test_builds_compose_in_label_order(family, canonical_calls):
    # the benchmark's alphabets build without the per-row sort: the
    # generated labels come in sorted order
    top = 10 if family == "hat" else 9
    for p in range(2 if family == "hat" else 1, top + 1):
        for n in range(0 if family in ("s", "hat") else 1, 4):
            g = _BUILDERS[family](p, n)
            assert not canonical_calls, (family, p, n)
            assert g._labels == sorted(g._labels)


@pytest.mark.parametrize(
    "family,p", [("s", 11), ("plus", 11), ("pp", 10), ("pp", 11), ("hat", 11)]
)
def test_unsorted_labels_take_the_canonical_step(
    family, p, canonical_calls, reference_edge_builders
):
    g = _BUILDERS[family](p, 2)
    assert len(canonical_calls) == 1
    want = reference_edge_builders[family](p, 2)
    assert g._labels == want._labels and g._nbrs == want._nbrs


@pytest.mark.parametrize(
    "family,p,n",
    [("s", 4, 5), ("plus", 4, 5), ("pp", 4, 5), ("hat", 4, 4), ("s", 11, 3), ("hat", 11, 2)],
)
def test_rows_share_the_index_ints(family, p, n):
    # every stored neighbour index is the int object of the label map,
    # so the rows add no int of their own
    g = _BUILDERS[family](p, n)
    ints = list(g._index.values())
    assert g.order > 256  # past CPython's cached small ints
    assert all(v is ints[v] for row in g._nbrs for v in row)


@pytest.mark.parametrize("family,p,n", [("s", 9, 5), ("hat", 3, 8)])
def test_certify_graphs_match_the_edge_stream_reference(family, p, n, reference_edge_builders):
    # the two certify set-up graphs that _composed_grid leaves out
    g, want = _BUILDERS[family](p, n), reference_edge_builders[family](p, n)
    assert g._labels == want._labels
    assert g._index == want._index
    assert g._nbrs == want._nbrs


def _composed_grid():
    # every family at p 1..12 x n 0..5 up to 40,000 vertices, hat(6,5)
    # and s(9,4) among them
    cases = [
        (family, p, n)
        for family in ("s", "plus", "pp", "hat")
        for p in range(1, 13)
        for n in range(0, 6)
        if (family, p) != ("hat", 1) and (n >= 1 or family in ("s", "hat"))
    ]
    cases = [c for c in cases if expected_order(*c) <= 40_000]
    assert ("hat", 6, 5) in cases and ("s", 9, 4) in cases
    return cases


@pytest.mark.parametrize("family", ["s", "plus", "pp", "hat"])
def test_builders_match_the_edge_stream_reference(family, reference_edge_builders):
    built = 0
    for fam, p, n in _composed_grid():
        if fam != family:
            continue
        g, want = _BUILDERS[family](p, n), reference_edge_builders[family](p, n)
        assert g._labels == want._labels, (p, n)
        assert g._index == want._index, (p, n)
        assert g._nbrs == want._nbrs, (p, n)
        assert g.size == want.size, (p, n)
        built += 1
    assert built == {"s": 68, "plus": 56, "pp": 56, "hat": 57}[family]


def _row_fault(nbrs, size):
    """What keeps neighbour rows from being a simple graph's, or None:
    each row strictly increasing and loop-free, every entry mirrored, and
    the entries twice the edge count."""
    for k, row in enumerate(nbrs):
        if any(a >= b for a, b in zip(row, row[1:])):
            return f"row {k} is not strictly increasing"
        if k in row:
            return f"loop at {k}"
        for j in row:
            if k not in nbrs[j]:
                return f"{j} in row {k} but {k} not in row {j}"
    if sum(map(len, nbrs)) != 2 * size:
        return "entries do not add up to twice the size"
    return None


def test_composed_rows_form_simple_graphs():
    for family, p, n in _composed_grid():
        g = _BUILDERS[family](p, n)
        assert _row_fault(g._nbrs, g.size) is None, (family, p, n)
        assert g.size == expected_size(family, p, n), (family, p, n)


@pytest.mark.parametrize(
    "nbrs,size,fault",
    [
        ([(1,), (0, 2), (1,)], 2, None),
        ([(1, 1), (0, 2), (1,)], 2, "not strictly increasing"),
        ([(1,), (0, 1, 2), (1,)], 2, "loop at 1"),
        ([(1, 2), (0, 2), (1,)], 2, "2 in row 0 but 0 not in row 2"),
        ([(1,), (0, 2), (1,)], 3, "twice the size"),
    ],
)
def test_row_fault_catches_duplicates_loops_and_one_sided_entries(nbrs, size, fault):
    got = _row_fault(nbrs, size)
    assert got is None if fault is None else fault in got
