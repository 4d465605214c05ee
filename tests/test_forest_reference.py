"""The forest constructions and the linear forest's check and structure
report against the reference they replace, and a guard that the
constructions format their labels in bulk."""

from collections import Counter

import pytest

from sfvs import addressing, generators, pairable_forest, triangle_forest
from sfvs.generators import sierpinski_plusplus, triangle
from sfvs.pairable_forest import (
    PairablePartition,
    closure,
    closure_block,
    closure_split,
    forest_plus,
    forest_plusplus,
    forest_sierpinski,
    fvs_sierpinski,
)
from sfvs.triangle_forest import (
    corner_path_base,
    forest_triangle,
    fvs_triangle3,
    structure_report,
    tail_path_base,
)

# p 1..8 up to level 5, and the comma-separated alphabets up to level 3;
# the largest instance, hat(8,5), has 131,076 vertices, within MAX_ORDER
_ALPHABETS = [*range(1, 9), 11, 12]


def _levels(p: int):
    return range(6 if p <= 8 else 4)


def _outcome(fn, *args, **kwargs):
    """A construction's labels, or the text of the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("p", _ALPHABETS)
def test_base_family_forests_match_the_reference(p, reference_forests):
    ref = reference_forests
    for n in _levels(p):
        for fn in (forest_sierpinski, fvs_sierpinski, forest_plus):
            assert _outcome(fn, p, n) == _outcome(getattr(ref, fn.__name__), p, n), (fn, n)
        graph = sierpinski_plusplus(p, n) if p >= 3 and n >= 2 else None
        got = _outcome(forest_plusplus, p, n, graph=graph)
        assert got == _outcome(ref.forest_plusplus, p, n, graph=graph), n


@pytest.mark.parametrize("p", [2, 3, 4, 5, 8, 11, 12])
def test_closures_match_the_reference(p, reference_forests):
    ref = reference_forests
    for a in range(p):
        for b in range(p):
            if a == b:
                continue
            part = PairablePartition((((a,), (b,)),))
            for _ in range(2):
                got = _outcome(closure, part, p)
                assert got == _outcome(ref.closure, part, p), (a, b)
                assert _outcome(closure_split, part, p) == _outcome(ref.closure_split, part, p)
                for block in part.blocks:
                    assert _outcome(closure_block, block, p) == _outcome(ref.closure_block, block, p)
                if isinstance(got, str):
                    break
                part = got


@pytest.mark.parametrize("p", _ALPHABETS)
def test_quotient_forests_match_the_reference(p, reference_forests):
    ref = reference_forests
    for s in range(-1, p + 1):
        assert _outcome(corner_path_base, s, p) == _outcome(ref.corner_path_base, s, p), s
    assert _outcome(tail_path_base, p) == _outcome(ref.tail_path_base, p)
    for n in _levels(p):
        graph = triangle(p, n) if p >= 4 and n >= 2 else None
        got = _outcome(forest_triangle, p, n, graph=graph)
        assert got == _outcome(ref.forest_triangle, p, n, graph=graph), n


def _mutants(g, forest, build_indexed):
    """Copies of g, each of the same order, that break the linear forest
    in one way: an edge joining the two ends of its longest path (a
    cycle), an edge joining interior vertices of its two longest paths
    (two vertices of degree 3), the longest path's first edge removed
    (the path splits), and a forest vertex renamed (a missing vertex),
    each built by build_indexed."""
    sub = g.induced(forest)
    comps = sorted(sub.components(), key=len, reverse=True)
    longest, other = comps[0], comps[1]
    ends = [v for v in longest if sub.degree(v) == 1]
    interior = next(v for v in longest if sub.degree(v) == 2)
    other_interior = next(v for v in other if sub.degree(v) == 2)
    first_edge = (longest[0], sub.neighbors(longest[0])[0])
    labels = g.vertices()
    index = {v: i for i, v in enumerate(labels)}
    pairs = g.edges()

    def build(names, edges):
        return build_indexed(names, [(index[u], index[v]) for u, v in edges])

    renamed = list(labels)
    renamed[index[interior]] = "zz"
    return {
        "cycle": build(labels, pairs + [tuple(ends)]),
        "degree 3": build(labels, pairs + [(interior, other_interior)]),
        "split path": build(labels, [e for e in pairs if set(e) != set(first_edge)]),
        "missing vertex": build(renamed, pairs),
    }


@pytest.mark.parametrize("p", range(4, 9))
def test_linear_forest_checks_match_the_reference(p, reference_forests, reference_build_indexed):
    ref = reference_forests
    for n in range(2, 5):
        g = triangle(p, n)
        rep = structure_report(p, n, graph=g)
        assert rep == ref.structure_report(p, n, graph=g), n
        assert rep.ok, n
        if n == 2:
            assert structure_report(p, n) == ref.structure_report(p, n)
        mutants = _mutants(g, forest_triangle(p, n, graph=g), reference_build_indexed)
        problems = {}
        for name, mutant in mutants.items():
            got = structure_report(p, n, graph=mutant)
            assert got == ref.structure_report(p, n, graph=mutant), (n, name)
            problems[name] = got.problems
            want = _outcome(ref.forest_triangle, p, n, graph=mutant)
            assert _outcome(forest_triangle, p, n, graph=mutant) == want, (n, name)
        assert problems["cycle"][0].startswith("construction induced a cycle: [")
        assert problems["degree 3"][0].startswith("construction is not a linear forest at ")
        assert problems["split path"][0].startswith("path multiset differs: ")
        (gone,) = set(g.vertices()) - set(mutants["missing vertex"].vertices())
        assert problems["missing vertex"] == (f"no such vertex: {gone!r}",)


def test_fvs_triangle3_matches_the_reference(reference_forests):
    for n in range(-1, 8):
        assert _outcome(fvs_triangle3, n) == _outcome(reference_forests.fvs_triangle3, n), n


def test_constructions_format_labels_in_bulk(monkeypatch):
    calls = Counter()

    def spy(name):
        real = getattr(addressing, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in ("format_word", "format_vertex"):
        counted = spy(name)
        for module in (addressing, generators, pairable_forest, triangle_forest):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    # the spy sees the per-word path where it is still public API
    assert len(closure_block(("1", "2"), 5)) == 10
    assert calls == {"format_word": 10}

    runs = {
        "forest_sierpinski": lambda: forest_sierpinski(5, 4),
        "forest_plus": lambda: forest_plus(5, 4),
        "forest_plusplus": lambda: forest_plusplus(5, 4),
        "fvs_triangle3": lambda: fvs_triangle3(5),
        "forest_triangle": lambda: forest_triangle(5, 4),
    }
    for name, run in runs.items():
        calls.clear()
        labels = run()
        assert len(labels) > 100, name
        # forest_plus formats the two words it swaps; nothing formats
        # one label per vertex
        assert sum(calls.values()) <= 2, (name, dict(calls))
