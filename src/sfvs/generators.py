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
at their corners.  Edges are integer index pairs, a word standing for
its base-p rank, and graph_core.build_indexed turns them into a
LabeledGraph over labels that addressing formats in the same order.
triangle never builds the level n+1 parent.  nonclique_edges lists the
matching that the definition contracts, so graph_core.contract_edges on
sierpinski(p, n+1) gives the reference graph.
"""

from __future__ import annotations

import itertools
from itertools import chain, combinations

from .addressing import (
    APEX_LABEL,
    FAMILIES,
    copy_labels,
    hat_labels,
    word_labels,
    word_separator,
)
from .graph_core import GraphError, LabeledGraph, build_indexed

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
    """The parameter checks of the family's builder."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _check_params(p, n, 1 if family in ("plus", "pp") else 0)
    if family == "hat" and p < 2:
        raise ValueError(f"the quotient family needs at least 2 symbols, got {p}")


def _one(p: int, m: int) -> int:
    """Rank of the word 1^m, so that i * _one(p, m) is the rank of i^m."""
    return sum(p**k for k in range(m))


def _copies(flat, tables):
    """Every index of the flat edge list [u0, v0, u1, v1, ...] mapped
    through each table in turn: one relabeled copy per table."""
    return chain.from_iterable(map(table.__getitem__, flat) for table in tables)


def _base_level(p: int, m: int, flat):
    """Level m of the base graph from level m - 1, both flat over word
    ranks: p copies, copy i shifted by i * p^(m-1), and one bridge
    i.j^(m-1) -- j.i^(m-1) per pair i < j."""
    q, one = p ** (m - 1), _one(p, m - 1)
    bridges = ((i * q + j * one, j * q + i * one) for i, j in combinations(range(p), 2))
    shifts = [range(i * q, (i + 1) * q) for i in range(p)]
    return chain(_copies(flat, shifts), chain.from_iterable(bridges))


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


def _hat_level(p: int, m: int, flat):
    """Level m of the quotient from level m - 1, both flat over indices in
    hat_labels order: one copy of level m - 1 per table of _hat_tables."""
    return _copies(flat, _hat_tables(p, m))


def _levels(level, p: int, n: int, flat):
    """The edges at level n - 1 as a flat list and at level n as an
    iterator of index pairs, built by level() up from level 0's flat list.
    Only level n is streamed: the core holds its edges anyway."""
    for m in range(1, n):
        flat = list(level(p, m, flat))
    top = iter(level(p, n, flat) if n else flat)
    return flat, zip(top, top)


def sierpinski(p: int, n: int) -> LabeledGraph:
    """The base graph on p^n words."""
    _check_family("s", p, n)
    _, edges = _levels(_base_level, p, n, [])
    return build_indexed(word_labels(p, n), edges)


def sierpinski_plus(p: int, n: int) -> LabeledGraph:
    """Base graph plus an apex adjacent to the p extreme vertices."""
    _check_family("plus", p, n)
    _, edges = _levels(_base_level, p, n, [])
    apex, one = p**n, _one(p, n)
    edges = chain(edges, ((apex, i * one) for i in range(p)))
    return build_indexed(word_labels(p, n) + [APEX_LABEL], edges)


def sierpinski_plusplus(p: int, n: int) -> LabeledGraph:
    """Base graph with an extra copy one level smaller glued on.

    The copy's word u is labeled "p:u"; its extreme i^(n-1) is joined to
    the host extreme i^n, so every host extreme gets one new neighbor.
    """
    _check_family("pp", p, n)
    below, top = _levels(_base_level, p, n, [])
    off, one, one_below = p**n, _one(p, n), _one(p, n - 1)
    copy = _copies(below, [range(off, off + p ** (n - 1))])
    extremes = ((off + i * one_below, i * one) for i in range(p))
    edges = chain(top, zip(copy, copy), extremes)
    return build_indexed(word_labels(p, n) + copy_labels(p, n - 1), edges)


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
        for s in itertools.product(sym, repeat=m - d):
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
    k_p = list(chain.from_iterable(combinations(range(p), 2)))
    _, edges = _levels(_hat_level, p, n, k_p)
    g = build_indexed(hat_labels(p, n), edges)
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
    if family == "s":
        return p**n
    if family == "plus":
        return p**n + 1
    if family == "pp":
        return (p + 1) * p ** (n - 1)
    num = p * (p**n + 1)
    assert num % 2 == 0
    return num // 2


def expected_size(family: str, p: int, n: int) -> int:
    """Closed-form edge count for a family at (p, n); raises ValueError
    where the family's builder does."""
    _check_family(family, p, n)
    if family == "s":
        num = p * (p**n - 1)
    elif family == "plus":
        num = p * (p**n + 1)
    elif family == "pp":
        num = (p + 1) * p**n
    else:
        num = (p - 1) * p ** (n + 1)
    assert num % 2 == 0
    return num // 2
