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

triangle is built in closed form, without the level n+1 parent.
nonclique_edges lists the matching that the definition contracts, so
graph_core.contract_edges on sierpinski(p, n+1) gives the reference graph.
"""

from __future__ import annotations

import itertools

from .addressing import (
    APEX_LABEL,
    EMPTY_WORD_LABEL,
    FAMILIES,
    Contracted,
    Hat,
    format_vertex,
    word_separator,
)
from .graph_core import GraphError, LabeledGraph, build_graph

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


def _word_labels(p: int, n: int):
    if n == 0:
        return [EMPTY_WORD_LABEL]
    sep = word_separator(p)
    sym = [str(k) for k in range(p)]
    return [sep.join(t) for t in itertools.product(sym, repeat=n)]


def _sierpinski_edges(p: int, n: int):
    """Edges of the base family as label pairs.

    One edge per (d, s, i, j): the word s.i.j^(d-1) meets s.j.i^(d-1).
    d = 1 gives the p-cliques on sibling words, d >= 2 the bridges
    between subcopies.
    """
    sep = word_separator(p)
    sym = [str(k) for k in range(p)]
    for d in range(1, n + 1):
        for s in itertools.product(sym, repeat=n - d):
            base = list(s)
            for i in range(p):
                si = sym[i]
                for j in range(i + 1, p):
                    sj = sym[j]
                    yield (
                        sep.join(base + [si] + [sj] * (d - 1)),
                        sep.join(base + [sj] + [si] * (d - 1)),
                    )


def sierpinski(p: int, n: int) -> LabeledGraph:
    """The base graph on p^n words."""
    _check_family("s", p, n)
    return build_graph(_word_labels(p, n), _sierpinski_edges(p, n))


def sierpinski_plus(p: int, n: int) -> LabeledGraph:
    """Base graph plus an apex adjacent to the p extreme vertices."""
    _check_family("plus", p, n)
    sep = word_separator(p)
    extremes = [sep.join([str(i)] * n) for i in range(p)]
    edges = itertools.chain(
        _sierpinski_edges(p, n), ((APEX_LABEL, e) for e in extremes)
    )
    return build_graph(_word_labels(p, n) + [APEX_LABEL], edges)


def sierpinski_plusplus(p: int, n: int) -> LabeledGraph:
    """Base graph with an extra copy one level smaller glued on.

    The copy's word u is labeled "p:u"; its extreme i^(n-1) is joined to
    the host extreme i^n, so every host extreme gets one new neighbor.
    """
    _check_family("pp", p, n)
    sep = word_separator(p)
    copy = [f"{p}:{sep.join(t)}" for t in itertools.product([str(k) for k in range(p)], repeat=n - 1)]
    extremes = [
        (f"{p}:{sep.join([str(i)] * (n - 1))}", sep.join([str(i)] * n))
        for i in range(p)
    ]
    edges = itertools.chain(
        _sierpinski_edges(p, n),
        ((f"{p}:{u}", f"{p}:{v}") for u, v in _sierpinski_edges(p, n - 1)),
        extremes,
    )
    return build_graph(_word_labels(p, n) + copy, edges)


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

    Built in closed form, without the p^(n+1)-vertex parent: the
    contraction keeps every level-1 clique u.P of the parent, and these
    p^n cliques carry all the edges.  Over u = s.i the clique joins the
    p - 1 deepest vertices s:{i,j} and the image of s.i.i, which is a
    corner or a shallower vertex.
    """
    _check_family("hat", p, n)
    rng = range(p)
    # corner k is keyed k, the contracted vertex prefix:{i,j} (s, i, j), i < j
    label = {k: format_vertex(Hat(k), p) for k in rng}
    for length in range(n):
        for s in itertools.product(rng, repeat=length):
            for i, j in itertools.combinations(rng, 2):
                label[s, i, j] = format_vertex(Contracted(s, (i, j)), p)

    def image(w):
        # the vertex a parent word w = t.k.x...x collapses to: t:{k,x}, or
        # the corner ^x when w is constant
        x, r = w[-1], len(w) - 1
        while r and w[r - 1] == x:
            r -= 1
        if r == 0:
            return label[x]
        k = w[r - 1]
        return label[w[: r - 1], min(k, x), max(k, x)]

    cliques = ([image(u + (x,)) for x in rng] for u in itertools.product(rng, repeat=n))
    edges = (e for clique in cliques for e in itertools.combinations(clique, 2))
    g = build_graph(label.values(), edges)
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
