import itertools

import pytest

from sfvs import generators, verify_cli
from sfvs.generators import sierpinski, sierpinski_plus, sierpinski_plusplus
from sfvs.graph_core import GraphError, build_graph, find_cycle, is_forest
from sfvs.pairable_forest import (
    NotPairableError,
    PairablePartition,
    closure,
    closure_block,
    closure_split,
    forest_plus,
    forest_plusplus,
    forest_sierpinski,
    fvs_sierpinski,
    pairable_partition,
)


def test_pairable_partition_groups_by_head():
    part = pairable_partition(["01", "02", "11", "12"], 3)
    assert part.blocks == (((0, 1), (0, 2)), ((1, 1), (1, 2)))
    assert part.heads == ((0,), (1,))
    assert len(part) == 4
    assert part.labels(3) == {"01", "02", "11", "12"}


def test_pairable_partition_rejects_odd_heads():
    with pytest.raises(NotPairableError) as err:
        pairable_partition(["01", "02", "11"], 3)
    assert err.value.head == "1"
    assert "exactly 2" in str(err.value)


def test_pairable_partition_rejects_overfull_heads():
    with pytest.raises(NotPairableError) as err:
        pairable_partition(["10", "11", "12"], 3)
    assert err.value.head == "1"


def test_pairable_partition_input_validation():
    with pytest.raises(ValueError):
        pairable_partition(["01", "01"], 3)
    with pytest.raises(ValueError):
        pairable_partition(["01", "02", "1"], 3)
    with pytest.raises(ValueError):
        pairable_partition([""], 3)


def test_closure_block_five_symbols():
    assert closure_block(("1", "2"), 5) == {
        "11", "12", "21", "22",
        "04", "01",
        "32", "34",
        "43", "40",
    }
    assert closure_block(((0,), (2,)), 5) == {
        "00", "02", "20", "22",
        "10", "12",
        "32", "34",
        "43", "40",
    }


def test_closure_block_validation():
    with pytest.raises(ValueError):
        closure_block(("01", "11"), 3)  # different heads
    with pytest.raises(ValueError):
        closure_block(("1", "2"), 2)
    with pytest.raises(ValueError, match="a block has exactly 2 words, got 1"):
        closure_block(("1",), 5)
    with pytest.raises(ValueError, match="a block has exactly 2 words, got 3"):
        closure_block(("0", "1", "2"), 5)


def test_closure_multiplies_by_p_and_extends_heads():
    part = pairable_partition(["1", "2"], 5)
    closed = closure(part, 5)
    assert len(closed) == 5 * len(part)
    assert set(closed.heads) == {(k,) for k in range(5)}
    twice = closure(closed, 5)
    assert len(twice) == 25 * len(part)
    assert set(twice.heads) == set(itertools.product(range(5), repeat=2))


def test_closure_split_parts_are_disjoint_and_cover():
    part = pairable_partition(["1", "2"], 5)
    own, other = closure_split(part, 5)
    assert own == {"11", "12", "21", "22"}
    assert other == {"04", "01", "32", "34", "43", "40"}
    assert own | other == closure(part, 5).labels(5)


@pytest.mark.parametrize("p", [3, 4, 5, 7])
@pytest.mark.parametrize("m", [2, 3])
def test_closure_split_has_no_cross_edges(p, m):
    """The two halves of a closed set touch no common edge one level down."""
    part = pairable_partition(["1", "2"], p)
    for _ in range(m - 1):
        own, other = closure_split(part, p)
        part = closure(part, p)
    g = sierpinski(p, m)
    for u in own:
        for v in g.neighbors(u):
            assert v not in other


@pytest.mark.parametrize("p,n", [(3, 1), (3, 3), (5, 2), (8, 2), (4, 4)])
def test_base_forest_size_and_acyclicity(p, n):
    forest = forest_sierpinski(p, n)
    assert len(forest) == 2 * p ** (n - 1)
    g = sierpinski(p, n)
    assert is_forest(g, forest)


def test_base_forest_contains_two_extremes():
    forest = forest_sierpinski(4, 3)
    assert {"111", "222"} <= forest
    assert not {"000", "333"} & forest


def test_base_forest_two_symbols_is_everything():
    assert forest_sierpinski(2, 3) == {"000", "001", "010", "011", "100", "101", "110", "111"}


def test_deletion_set_complements_forest():
    p, n = 3, 2
    cut = fvs_sierpinski(p, n)
    assert cut == {"00", "10", "20"}
    assert len(cut) == p ** (n - 1) * (p - 2)


@pytest.mark.parametrize("p,n,size", [(3, 2, 7), (4, 2, 9), (5, 3, 51)])
def test_apex_forest(p, n, size):
    forest = forest_plus(p, n)
    assert len(forest) == size == 2 * p ** (n - 1) + 1
    assert "w" in forest
    g = sierpinski_plus(p, n)
    assert is_forest(g, forest)
    assert find_cycle(g, forest) is None


def test_apex_forest_two_symbols():
    forest = forest_plus(2, 3)
    g = sierpinski_plus(2, 3)
    assert is_forest(g, forest)
    assert len(forest) == g.order - 1


def test_apex_forest_rejects_level_one():
    with pytest.raises(ValueError):
        forest_plus(3, 1)
    # the apex graph at level 1 is complete, so only a pair can survive
    g = sierpinski_plus(3, 1)
    assert g.size == g.order * (g.order - 1) // 2


@pytest.mark.parametrize(
    "p,n,size",
    [
        (3, 2, 8),
        (3, 3, 24),
        (4, 2, 10),
        (5, 2, 12),
        (6, 3, 84),
    ],
)
def test_extra_copy_forest(p, n, size):
    forest = forest_plusplus(p, n)
    assert len(forest) == size == 2 * p ** (n - 1) + 2 * p ** (n - 2)
    g = sierpinski_plusplus(p, n)
    assert is_forest(g, forest)


def test_extra_copy_forest_complement_formula():
    for p, n in [(3, 2), (4, 2), (5, 2), (6, 3)]:
        g = sierpinski_plusplus(p, n)
        cut = g.order - len(forest_plusplus(p, n))
        assert cut == p ** (n - 2) * (p - 2) * (p + 1)


def test_extra_copy_forest_two_symbols():
    g = sierpinski_plusplus(2, 3)
    forest = forest_plusplus(2, 3)
    assert forest == set(g.vertices()) - {"000"}
    assert is_forest(g, forest)


def test_extra_copy_forest_two_symbols_is_checked(monkeypatch):
    # one forest walk, as at p >= 3, and the same failures
    from sfvs import graph_core

    calls = []
    real = graph_core._walk

    def spy(g, keep, mark):
        calls.append(len(keep))
        return real(g, keep, mark)

    monkeypatch.setattr(graph_core, "_walk", spy)
    g = sierpinski_plusplus(2, 3)
    forest = verify_cli._forest("pp", 2, 3, g)
    assert forest == forest_plusplus(2, 3)
    assert calls == [len(forest)]
    with pytest.raises(GraphError, match="graph has order 6, expected 12"):
        verify_cli._forest("pp", 2, 3, sierpinski_plusplus(2, 2))
    a, b, c = sorted(forest)[:3]
    cyclic = build_graph(g.vertices(), g.edges() + [(a, b), (b, c), (a, c)])
    with pytest.raises(GraphError, match="construction induced a cycle"):
        verify_cli._forest("pp", 2, 3, cyclic)


def test_extra_copy_forest_rejects_level_one():
    with pytest.raises(ValueError):
        forest_plusplus(3, 1)


def test_extra_copy_forest_uses_a_given_graph(monkeypatch):
    # the construction builds no graph: the check runs on the one given
    g = sierpinski_plusplus(4, 3)
    builds = []

    def spy(p, n):
        builds.append((p, n))
        return sierpinski_plusplus(p, n)

    monkeypatch.setattr(generators, "sierpinski_plusplus", spy)
    monkeypatch.setitem(verify_cli._BUILDERS, "pp", spy)
    assert verify_cli._forest("pp", 4, 3, g) == forest_plusplus(4, 3)
    assert builds == []
    with pytest.raises(GraphError, match="graph has order 20, expected 80"):
        verify_cli._forest("pp", 4, 3, sierpinski_plusplus(4, 2))


def test_extra_copy_forest_still_checks_acyclicity():
    # two extra edges close the triangle 01, 02, 3:0 inside the forest
    g = sierpinski_plusplus(3, 2)
    host = build_graph(g.vertices(), g.edges() + [("01", "3:0"), ("02", "3:0")])
    with pytest.raises(GraphError, match="construction induced a cycle"):
        verify_cli._forest("pp", 3, 2, host)
