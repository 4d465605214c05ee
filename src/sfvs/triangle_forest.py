"""Feedback-set and induced-forest constructions for the contracted
(triangle) family, plus their closed-form order predictors.

Two constructions live here.  For a 3-symbol alphabet, a recursive minimum
feedback set is assembled from three twisted copies of the previous level:
copy j is re-colored by a cyclic symbol permutation before being embedded
into subtriangle j, which makes the three copies overlap in exactly one
vertex per pair and keeps exactly one corner in the set.

For alphabets of size at least 4 the roles flip and the object built is a
large induced linear forest: corner-to-corner paths through each even
subtriangle pair, glued copies one level up, with the top-level vertices
joining two even corners removed to break the resulting cycles.

Both are computed as sets of vertex indices in addressing.hat_labels
order, the build's own, carried one level up through the quotient's
per-copy index tables (generators._hat_tables), which are their only way
to a corner; only the kept indices are formatted, by
addressing.hat_rank_labels.  The linear forest is checked as every
construction is, by graph_core._forest_paths: one walk over the graph's
indices finds any cycle, any vertex of induced degree above 2 and the
path orders that structure_report compares with the prediction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .addressing import hat_rank_labels
from .generators import _hat_tables, expected_order
from .graph_core import GraphError, LabeledGraph, _forest_paths

__all__ = [
    "StructureReport",
    "corner_path_base",
    "forest_order_bound",
    "forest_order_recurrence",
    "forest_order_small",
    "forest_triangle",
    "fvs_triangle3",
    "structure_report",
    "tail_path_base",
]

def _labels(indices, p: int, n: int) -> set:
    """The level-n labels of a set of level-n indices."""
    return set(hat_rank_labels(p, n, indices))


def fvs_triangle3(n: int) -> set:
    """A minimum feedback vertex set of the 3-symbol triangle graph at
    level n, as labels.  Size (3^n+1)/2; contains one corner vertex."""
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    # level m is the union over j of copy j of level m-1 recolored by
    # r_j: k -> k-j (mod 3).  sets[t] holds the level-m indices of the set
    # recolored by r_t, and r_t maps copy j of r_j(S) to copy j-t of
    # r_(j+t)(S).
    sets = [{0}, {2}, {1}]
    for m in range(1, n + 1):
        tables = _hat_tables(3, m)
        sets = [
            {tables[(j - t) % 3][u] for j in range(3) for u in sets[(j + t) % 3]}
            for t in range(3)
        ]
    return _labels(sets[0], 3, n)


def forest_order_small(p: int, n: int) -> int:
    """Maximum induced forest order of the triangle family for levels 0-2."""
    if p < 2:
        raise ValueError(f"need at least 2 symbols, got {p}")
    if n not in (0, 1, 2):
        raise ValueError(f"only levels 0-2 have small closed forms, got {n}")
    if p % 2 == 0:
        return (2, 3 * p // 2, p * p + p // 2)[n]
    return (2, (3 * p - 1) // 2, p * p + (p - 1) // 2)[n]


def _corner_path(s: int, p: int) -> set:
    # level-2 indices: in subtriangles s and s+1, both corners and every
    # pair :{i,i+1 mod p} but :{s,s+1}
    one, two = _hat_tables(p, 1), _hat_tables(p, 2)
    base = [one[s][s], one[s + 1][s + 1]] + [one[i][(i + 1) % p] for i in range(p) if i != s]
    return {two[j][u] for j in (s, s + 1) for u in base}


def corner_path_base(s: int, p: int) -> set:
    """The level-2 path joining corners s and s+1, as labels: both
    corners, the vertex merging them, and a ladder of pair vertices
    through both subtriangles.  Order 2p+1."""
    if p < 4:
        raise ValueError(f"need at least 4 symbols, got {p}")
    if s % 2 or s + 1 >= p:
        raise ValueError(f"corner index must be even with s+1 < p, got {s}")
    return _labels(_corner_path(s, p), p, 2)


def _tail_path(p: int) -> set:
    # level-2 indices: in subtriangle p-1, its corner and the pairs
    # :{i,i+1} for i < p-1
    one, two = _hat_tables(p, 1), _hat_tables(p, 2)
    return {two[p - 1][u] for u in [one[p - 1][p - 1]] + [one[i][i + 1] for i in range(p - 1)]}


def tail_path_base(p: int) -> set:
    """Odd alphabets leave one corner unpaired; this level-2 path of order
    p covers its subtriangle, running from the corner into the pair
    ladder without wrapping around."""
    if p < 5 or p % 2 == 0:
        raise ValueError(f"only odd alphabets of size >= 5 have a tail path, got {p}")
    return _labels(_tail_path(p), p, 2)


def _even_starts(p: int):
    return range(0, p - 1, 2)


def _linear_forest(p: int, n: int) -> set:
    """Level-n indices of the large-alphabet forest: the level-2 corner
    paths (and the tail path), copied into every subtriangle one level at
    a time, less the top vertices :{s1,s2} joining two even corners."""
    level = set().union(*(_corner_path(s, p) for s in _even_starts(p)))
    if p % 2:
        level |= _tail_path(p)
    for m in range(3, n + 1):
        tables = _hat_tables(p, m)
        removed = {tables[s1][s2 - p] for s1, s2 in combinations(_even_starts(p), 2)}
        level = {t[u] for t in tables for u in level} - removed
    return level


def forest_order_recurrence(p: int, n: int) -> int:
    """Level-by-level size of the large-alphabet forest: each step scales
    by p, loses one vertex per corner pair to overlap, and loses the
    removed top vertices."""
    if p < 4 or n < 2:
        raise ValueError(f"defined for p >= 4, n >= 2, got ({p}, {n})")
    count = forest_order_small(p, 2)
    pairs = math.comb(len(_even_starts(p)), 2)
    for _ in range(n - 2):
        count = p * count - p * (p - 1) // 2 - pairs
    return count


def forest_order_bound(p: int, n: int) -> int:
    """Closed form for the order of the constructed forest, level >= 3.
    Exact integer arithmetic; divisibility is asserted rather than
    rounded."""
    if p < 4 or n < 3:
        raise ValueError(f"defined for p >= 4, n >= 3, got ({p}, {n})")
    if p % 2 == 0:
        geo = p * (p ** (n - 2) - 1)
        assert geo % (p - 1) == 0
        num = 8 * p**n - p ** (n - 1) + geo // (p - 1) + 5 * p
        assert num % 8 == 0
        return num // 8
    num = p ** (n - 1) + p ** (n - 2) - 5 * p + 3
    assert num % 8 == 0
    return p**n - num // 8


def _checked_forest(p: int, n: int, graph: LabeledGraph):
    """The labels of the large-alphabet linear forest and the orders of
    its paths, checked against the graph by _forest_paths (order, then
    cycle, then induced degree); any failure raises GraphError."""
    if p < 4:
        raise ValueError(f"need at least 4 symbols, got {p}")
    if n < 2:
        raise ValueError(f"level must be at least 2, got {n}")
    labels = _labels(_linear_forest(p, n), p, n)
    orders, over = _forest_paths(graph, labels, expected_order("hat", p, n))
    if over is not None:
        raise GraphError(f"construction is not a linear forest at {over!r}")
    return labels, orders


def forest_triangle(p: int, n: int, graph: LabeledGraph) -> set:
    """An induced linear forest of the triangle family, as labels.

    Size follows forest_order_recurrence (equals forest_order_bound for
    n >= 3).  The result is verified against graph, the triangle graph
    triangle(p, n): a graph of the wrong order, a cycle or a vertex of
    induced degree 3 raises GraphError.
    """
    return _checked_forest(p, n, graph)[0]


@dataclass(frozen=True)
class StructureReport:
    """Component decomposition of the constructed forest versus its
    predicted path multiset.  problems is empty when everything agrees."""

    p: int
    n: int
    total: int
    expected_paths: tuple  # sorted (order, count)
    actual_paths: tuple
    problems: tuple

    @property
    def ok(self) -> bool:
        return not self.problems


def _expected_path_multiset(p: int, n: int) -> Counter:
    starts = len(_even_starts(p))
    expected = Counter()
    expected[2 ** (n - 1) * p + 1] += starts
    for k in range(3, n + 1):
        copies = p ** (n - k)
        expected[2**k * p - 1] += math.comb(starts, 2) * copies
        if p % 2:
            expected[2 ** (k - 2) * p + 2 * p - 1] += starts * copies
    if p % 2:
        expected[p] += 1
    return expected


def structure_report(p: int, n: int, graph: LabeledGraph) -> StructureReport:
    """Decompose the constructed forest into components and compare with
    the predicted multiset of path orders and the recurrence.  The forest
    is checked as forest_triangle checks it, and a failed check raises
    the same GraphError (or ValueError outside p >= 4, n >= 2); problems
    holds only the structure findings."""
    labels, orders = _checked_forest(p, n, graph)
    actual = Counter(orders)
    problems = []
    expected = _expected_path_multiset(p, n)
    if actual != expected:
        only_exp = {k: v for k, v in (expected - actual).items()}
        only_act = {k: v for k, v in (actual - expected).items()}
        problems.append(
            f"path multiset differs: expected extra {only_exp}, actual extra {only_act}"
        )
    total = len(labels)
    if total != forest_order_recurrence(p, n):
        problems.append(
            f"size {total} != recurrence {forest_order_recurrence(p, n)}"
        )
    return StructureReport(
        p,
        n,
        total,
        tuple(sorted(expected.items())),
        tuple(sorted(actual.items())),
        tuple(problems),
    )
