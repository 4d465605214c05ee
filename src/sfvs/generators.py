"""Generators for the four graph families.

All four are defined over the alphabet P = {0, ..., p-1}:

  * sierpinski(p, n)          base family on words of length n; level 1 is
                              the complete graph, p = 2 gives paths
  * sierpinski_plus(p, n)     base family plus one apex joined to the p
                              extreme vertices i^n
  * sierpinski_plusplus(p, n) base family with a scaled copy one level
                              smaller glued onto the extremes
  * triangle(p, n)            the quotient of level n+1 under contraction
                              of all its non-clique edges

Every family is self-similar, and each is built that way: level m of
the base family is p copies of level m - 1 joined by one bridge per pair
of copies, and level m of the quotient is p copies of level m - 1 glued
at their corners.  A level is one row of neighbour indices per vertex, a
word standing for its base-p rank: the copies' rows mapped through one
injective table each, plus the joins.  Copies share at most a corner, so
the rows hold no loop or repeat and graph_core._from_rows needs no check;
the top tables also map each rank to its label's sorted position.
triangle never builds the level n+1 parent.  nonclique_edges lists the
matching that the definition contracts, so graph_core.contract_edges on
sierpinski(p, n+1) gives the reference graph.
"""

from __future__ import annotations

from itertools import combinations, product

from .addressing import (
    APEX_LABEL,
    copy_labels,
    hat_labels,
    word_labels,
    word_separator,
)
from .graph_core import GraphError, LabeledGraph, _from_rows, _label_index

__all__ = [
    "expected_order",
    "expected_size",
    "nonclique_edges",
    "sierpinski",
    "sierpinski_plus",
    "sierpinski_plusplus",
    "triangle",
]


def _check_params(p: int, n: int, n_min: int) -> None:
    if p < 1:
        raise ValueError(f"alphabet size must be positive, got {p}")
    if n < n_min:
        raise ValueError(f"level must be at least {n_min}, got {n}")


def _check_family(family: str, p: int, n: int) -> None:
    """The parameter checks of the family's builder, read from _FAMILY_TABLE."""
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}")
    _, p_min, n_min, _, _ = _FAMILY_TABLE[family]
    _check_params(p, n, n_min)
    if p < p_min:  # only the quotient needs more than one symbol
        raise ValueError(f"the quotient family needs at least {p_min} symbols, got {p}")


def _one(p: int, m: int) -> int:
    """Rank of the word 1^m, so that i * _one(p, m) is the rank of i^m."""
    return sum(p**k for k in range(m))


def _compose(rows, tables, order: int) -> list:
    """Rows over range(order) of one copy of rows per table, mapping v to
    table[v]; copies that share a vertex add their rows to it."""
    out = [[] for _ in range(order)]
    for table in tables:
        get = table.__getitem__
        for v, row in zip(table, rows):
            out[v] += map(get, row)
    return out


def _join(rows, pairs) -> list:
    """rows with the edges of pairs added."""
    for u, v in pairs:
        rows[u].append(v)
        rows[v].append(u)
    return rows


def _base_rows(p: int, n: int, pos, copies: int) -> list:
    """Rows of the level-n base graph, rank r at index pos[r] (lower levels
    on plain ranks): copy i of level m - 1 shifted by i * p^(m-1), bridges
    i.j^(m-1) -- j.i^(m-1) for i < j; copies = p + 1 adds pp's extra copy."""
    rows = [[]]  # level 0: the empty word
    for m in range(1, n + 1):
        q, one = p ** (m - 1), _one(p, m - 1)
        at = pos if m == n else list(range(p * q))
        tables = [at[i * q : (i + 1) * q] for i in range(copies if m == n else p)]
        bridges = ((at[i * q + j * one], at[j * q + i * one]) for i, j in combinations(range(p), 2))
        rows = _join(_compose(rows, tables, len(at)), bridges)
    return rows


def _hat_tables(p: int, m: int) -> list:
    """The p copies of the level m - 1 quotient inside level m, as tables
    from level m - 1 to level m indices (both in hat_labels order): copy i
    maps corner j to ^i when j = i and to :{i,j} otherwise, and its
    vertex s:{a,b} to i.s:{a,b}.  So tables[i][j] is the index of :{i,j}
    at every level m >= 1."""
    pair = {q: p + k for k, q in enumerate(combinations(range(p), 2))}
    inner = len(pair) * _one(p, m - 1)  # contracted vertices at level m - 1
    start = p + len(pair)
    return [
        [pair[min(i, j), max(i, j)] if j != i else i for j in range(p)]
        + list(range(start + i * inner, start + (i + 1) * inner))
        for i in range(p)
    ]


def _hat_rows(p: int, n: int, pos) -> list:
    """Rows of the level-n quotient, hat_labels rank r at index pos[r]
    (lower levels on plain ranks): K_p, then one copy per _hat_tables table."""
    rows = [[j for j in range(p) if j != k] for k in range(p)]
    for m in range(1, n):
        rows = _compose(rows, _hat_tables(p, m), expected_order("hat", p, m))
    tables = _hat_tables(p, n) if n else [range(p)]
    return _compose(rows, [list(map(pos.__getitem__, t)) for t in tables], len(pos))


def sierpinski(p: int, n: int) -> LabeledGraph:
    """The base graph on p^n words."""
    _check_family("s", p, n)
    names, rank, pos = _label_index(word_labels(p, n))
    return _from_rows(names, rank, _base_rows(p, n, pos, p))


def sierpinski_plus(p: int, n: int) -> LabeledGraph:
    """Base graph plus an apex adjacent to the p extreme vertices."""
    _check_family("plus", p, n)
    names, rank, pos = _label_index(word_labels(p, n) + [APEX_LABEL])
    apex, one = pos[p**n], _one(p, n)
    rows = _join(_base_rows(p, n, pos, p), ((apex, pos[i * one]) for i in range(p)))
    return _from_rows(names, rank, rows)


def sierpinski_plusplus(p: int, n: int) -> LabeledGraph:
    """Base graph with an extra copy one level smaller glued on.

    The copy's word u is labeled "p:u"; its extreme i^(n-1) is joined to
    the host extreme i^n, so every host extreme gets one new neighbor.
    """
    _check_family("pp", p, n)
    names, rank, pos = _label_index(word_labels(p, n) + copy_labels(p, n - 1))
    off, one, one_below = p**n, _one(p, n), _one(p, n - 1)
    extremes = ((pos[off + i * one_below], pos[i * one]) for i in range(p))
    rows = _join(_base_rows(p, n, pos, p + 1), extremes)
    return _from_rows(names, rank, rows)


def nonclique_edges(p: int, m: int):
    """The d >= 2 edges of the level-m base graph, tagged with the quotient
    vertex each one collapses to.

    Returns a list of (u, v, name) label triples.  These edges form a
    perfect matching on the non-extreme words: every such word has a
    unique maximal trailing constant run, which pins down its single
    d >= 2 edge.
    """
    _check_params(p, m, 1)
    sep = word_separator(p)
    sym = [str(k) for k in range(p)]
    out = []
    for d in range(2, m + 1):
        for s in product(sym, repeat=m - d):
            base = list(s)
            for i in range(p):
                si = sym[i]
                for j in range(i + 1, p):
                    sj = sym[j]
                    u = sep.join(base + [si] + [sj] * (d - 1))
                    v = sep.join(base + [sj] + [si] * (d - 1))
                    name = f"{sep.join(base)}:{{{i},{j}}}"
                    out.append((u, v, name))
    return out


def triangle(p: int, n: int) -> LabeledGraph:
    """Quotient of the level n+1 base graph under contraction of every
    non-clique edge, with the surviving extremes i^(n+1) named as corners
    "^i".

    Built level by level, without the p^(n+1)-vertex parent: level 0 is
    K_p on the corners, and level m is p copies of level m - 1 glued at
    their corners, copy i's corner j becoming ^i when j = i and the shared
    vertex :{i,j} otherwise.
    """
    _check_family("hat", p, n)
    names, rank, pos = _label_index(hat_labels(p, n))
    g = _from_rows(names, rank, _hat_rows(p, n, pos))
    if g.size != expected_size("hat", p, n):
        raise GraphError(
            f"closed-form edges of the quotient number {g.size}, "
            f"expected {expected_size('hat', p, n)}"
        )
    return g


def expected_order(family: str, p: int, n: int) -> int:
    """Closed-form vertex count for a family at (p, n); raises ValueError
    where the family's builder does."""
    _check_family(family, p, n)
    return _FAMILY_TABLE[family][3](p, n)


def expected_size(family: str, p: int, n: int) -> int:
    """Closed-form edge count for a family at (p, n); raises ValueError
    where the family's builder does."""
    _check_family(family, p, n)
    return _FAMILY_TABLE[family][4](p, n)


# What each family is, in FAMILIES order: its builder, least p, least n,
# and closed-form order and size at (p, n).  Each halving is exact: for
# odd p, p^n - 1, p^n + 1, p + 1 and p - 1 are even.
_FAMILY_TABLE = {
    "s": (sierpinski, 1, 0, lambda p, n: p**n, lambda p, n: p * (p**n - 1) // 2),
    "plus": (sierpinski_plus, 1, 1, lambda p, n: p**n + 1, lambda p, n: p * (p**n + 1) // 2),
    "pp": (
        sierpinski_plusplus,
        1,
        1,
        lambda p, n: (p + 1) * p ** (n - 1),
        lambda p, n: (p + 1) * p**n // 2,
    ),
    "hat": (
        triangle,
        2,
        0,
        lambda p, n: p * (p**n + 1) // 2,
        lambda p, n: (p - 1) * p ** (n + 1) // 2,
    ),
}
