"""Tests for the explicit forest constructions on the contracted family."""

import pytest

from sfvs.exact_fvs import tau_bnb
from sfvs.generators import triangle
from sfvs.graph_core import GraphError, find_cycle
from sfvs.triangle_forest import (
    corner_path_base,
    forest_order_bound,
    forest_order_recurrence,
    forest_order_small,
    forest_triangle,
    fvs_triangle3,
    structure_report,
    tail_path_base,
)


def induced_path_ends(g, labels):
    sub = g.induced(labels)
    assert find_cycle(g, labels) is None
    ends = sorted(v for v in sub.vertices() if sub.degree(v) <= 1)
    assert all(sub.degree(v) <= 2 for v in sub.vertices())
    assert len(sub.components()) == 1
    return ends


# three-symbol hitting set


@pytest.mark.parametrize("n,size", [(n, (3**n + 1) // 2) for n in range(8)])
def test_triangle3_fvs_size(n, size):
    assert len(fvs_triangle3(n)) == size


def test_triangle3_fvs_level_one_exact():
    assert fvs_triangle3(1) == {"^0", ":{1,2}"}


@pytest.mark.parametrize("n", range(5))
def test_triangle3_fvs_complement_is_forest(n):
    g = triangle(3, n)
    hit = fvs_triangle3(n)
    assert hit <= set(g.vertices())
    assert find_cycle(g, set(g.vertices()) - hit) is None


@pytest.mark.parametrize("n", range(6))
def test_triangle3_fvs_contains_one_corner(n):
    corners = [v for v in fvs_triangle3(n) if v.startswith("^")]
    assert corners == ["^0"]


def test_triangle3_fvs_rejects_negative_level():
    with pytest.raises(ValueError):
        fvs_triangle3(-1)


# small-level closed forms


@pytest.mark.parametrize(
    "p,values",
    [
        (4, (2, 6, 18)),
        (5, (2, 7, 27)),
        (6, (2, 9, 39)),
        (7, (2, 10, 52)),
        (2, (2, 3, 5)),
    ],
)
def test_forest_order_small(p, values):
    assert tuple(forest_order_small(p, n) for n in range(3)) == values


@pytest.mark.parametrize("p", [4, 5])
def test_forest_order_small_is_tight_at_level_one(p):
    # the exact feedback number leaves no larger induced forest
    g = triangle(p, 1)
    cert = tau_bnb(g)
    assert cert.optimal
    assert cert.tau == g.order - forest_order_small(p, 1)


def test_forest_order_small_rejects():
    with pytest.raises(ValueError):
        forest_order_small(4, 3)
    with pytest.raises(ValueError):
        forest_order_small(1, 0)


# base paths


@pytest.mark.parametrize("p", [4, 5, 6, 7])
def test_corner_path_is_a_path(p):
    g = triangle(p, 2)
    labels = corner_path_base(0, p)
    assert len(labels) == 2 * p + 1
    assert induced_path_ends(g, labels) == ["^0", "^1"]


def test_corner_path_higher_start():
    g = triangle(6, 2)
    labels = corner_path_base(4, 6)
    assert {"^4", "^5", ":{4,5}"} <= labels
    assert induced_path_ends(g, labels) == ["^4", "^5"]


def test_corner_path_rejects():
    with pytest.raises(ValueError):
        corner_path_base(0, 3)
    with pytest.raises(ValueError):
        corner_path_base(1, 4)
    with pytest.raises(ValueError):
        corner_path_base(4, 5)


@pytest.mark.parametrize("p", [5, 7])
def test_tail_path_is_a_path(p):
    g = triangle(p, 2)
    labels = tail_path_base(p)
    assert len(labels) == p
    last = p - 1
    ends = induced_path_ends(g, labels)
    assert ends == sorted([f"^{last}", f"{last}:{{0,1}}"])


def test_tail_path_rejects():
    with pytest.raises(ValueError):
        tail_path_base(4)
    with pytest.raises(ValueError):
        tail_path_base(3)


# assembled forest


@pytest.mark.parametrize(
    "p,n,size",
    [
        (4, 2, 18),
        (4, 3, 65),
        (5, 3, 124),
        (6, 3, 216),
        (4, 4, 253),
        (5, 4, 609),
    ],
)
def test_forest_triangle_sizes(p, n, size):
    assert len(forest_triangle(p, n, graph=triangle(p, n))) == size


@pytest.mark.parametrize("p,n", [(4, 3), (5, 3), (6, 2), (7, 2)])
def test_forest_triangle_is_linear_forest(p, n):
    g = triangle(p, n)
    labels = forest_triangle(p, n, graph=g)
    assert labels <= set(g.vertices())
    assert find_cycle(g, labels) is None
    sub = g.induced(labels)
    assert max(sub.degree(v) for v in sub.vertices()) <= 2


def test_forest_triangle_rejects():
    with pytest.raises(ValueError):
        forest_triangle(3, 2, graph=triangle(3, 2))
    with pytest.raises(ValueError):
        forest_triangle(4, 1, graph=triangle(4, 1))
    with pytest.raises(ValueError):
        forest_triangle(4, 3, graph=triangle(4, 2))


def test_forest_order_closed_form_values():
    assert forest_order_bound(7, 3) == 340
    assert forest_order_bound(6, 4) == 1278


@pytest.mark.parametrize("p", [4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_forest_order_closed_form_matches_recurrence(p, n):
    assert forest_order_bound(p, n) == forest_order_recurrence(p, n)


@pytest.mark.parametrize("p", [4, 5, 6, 7])
def test_forest_order_recurrence_base(p):
    assert forest_order_recurrence(p, 2) == forest_order_small(p, 2)


def test_forest_order_guards():
    with pytest.raises(ValueError):
        forest_order_recurrence(3, 3)
    with pytest.raises(ValueError):
        forest_order_recurrence(4, 1)
    with pytest.raises(ValueError):
        forest_order_bound(4, 2)


# component structure


@pytest.mark.parametrize(
    "p,n,paths",
    [
        (4, 2, ((9, 2),)),
        (4, 3, ((17, 2), (31, 1))),
        (5, 3, ((5, 1), (19, 2), (21, 2), (39, 1))),
    ],
)
def test_structure_report_path_multisets(p, n, paths):
    rep = structure_report(p, n, graph=triangle(p, n))
    assert rep.ok
    assert rep.problems == ()
    assert rep.actual_paths == paths
    assert rep.expected_paths == paths
    assert rep.total == sum(order * count for order, count in paths)


def test_structure_report_total_matches_recurrence():
    rep = structure_report(6, 3, graph=triangle(6, 3))
    assert rep.ok
    assert rep.total == forest_order_recurrence(6, 3)


def test_structure_report_survives_bad_input():
    with pytest.raises(GraphError, match="^graph has order 34, expected 130$"):
        structure_report(4, 3, graph=triangle(4, 2))


def test_forest_checks_never_induce_a_subgraph(monkeypatch):
    g = triangle(4, 3)
    cls = type(g)
    induced = cls.induced
    calls = []

    def spy(self, subset):
        calls.append(len(subset))
        return induced(self, subset)

    monkeypatch.setattr(cls, "induced", spy)
    assert len(forest_triangle(4, 3, graph=g)) == 65
    rep = structure_report(4, 3, graph=g)
    assert rep.ok
    assert rep.total == 65
    # the spy is live: an explicit induce is counted
    g.induced({"^0"})
    assert calls == [1]
