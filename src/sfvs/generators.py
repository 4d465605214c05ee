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
at their corners.  A level is one flat list of fixed-width neighbour
rows in the order its labels are generated, which is sorted label order,
the graph's own numbering, up to p = 10 (pp: 9).  Each copy is one map
of the level below through an injective table (the quotient's from
_hat_tables, in the hat_labels order triangle_forest counts in), the few
rows a join changes are replaced, and every row stays sorted.
The top level streams each copy into row tuples over the positions of
graph_core._label_index, so the rows store the label map's own ints.
For labels that do not come sorted, _canonical_rows moves each row to
its label's position and sorts it.  triangle never builds the level n+1
parent.  nonclique_edges lists the matching that the definition
contracts, so graph_core.contract_edges on sierpinski(p, n+1) gives the
reference graph.
"""

from __future__ import annotations

from itertools import chain, combinations, product

from .addressing import (
    APEX_LABEL,
    _one,
    copy_labels,
    hat_labels,
    word_labels,
    word_separator,
)
from .graph_core import GraphError, LabeledGraph, _label_index

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


def _stacked(below, tables, fixed, width: int, top: bool) -> list:
    """One copy of the flat width-wide rows below per table, the rows of
    fixed (by index) in place of theirs: a flat list, or at the top level
    row tuples, each copy streamed into them."""
    if not top:
        flat = [*chain.from_iterable(map(t.__getitem__, below) for t in tables)]
        for r, row in fixed.items():
            flat[r * width : (r + 1) * width] = row
        return flat
    rows = [*chain.from_iterable(zip(*[map(t.__getitem__, below)] * width) for t in tables)]
    for r, row in fixed.items():
        rows[r] = tuple(row)
    return rows


def _word_rows(p: int, n: int, pos, tails, copies: int) -> list:
    """The level-n >= 1 base graph's sorted rows as tuples over pos in
    rank order, extreme i^n's ending in tails[i]; copies = p + 1 adds pp's
    extra copy of level n - 1 (one vertex joined to all of K_p at n = 1),
    its other extremes left to the caller.  A row of level m holds the
    clique and the bridge, or an extreme i^m itself in slot i."""
    if n == 1:  # K_p, and pp's one-vertex copy joined to all of it
        rows = [tuple(pos[:i] + pos[i + 1 : p]) + tails[i] for i in range(p)]
        return rows + [tuple(pos[:p])] * (copies - p)
    rows = list(range(p)) * p  # level 1: K_p
    for m in range(1, n):
        q, one, top = p**m, _one(p, m), m == n - 1
        at = pos if top else list(range(p * q))
        tables = [at[i * q : (i + 1) * q] for i in range(copies if top else p)]
        ends = [rows[j * one * p : (j * one + 1) * p] for j in range(p)]
        for j, end in enumerate(ends):
            del end[j]  # extreme j^m's self slot
        joins = {}
        for i, j in product(range(p), repeat=2):
            # copy i's extreme j^m is bridged to copy j's extreme i^m,
            # which sorts first for j < i and last for j > i
            part, bridge = map(tables[i].__getitem__, ends[j]), at[j * q + i * one]
            if j != i:
                joins[i * q + j * one] = (bridge, *part) if j < i else (*part, bridge)
            elif top:
                joins[i * q + j * one] = (*part, *tails[i])
        rows = _stacked(rows, tables, joins, p, top)
    return rows


def _hat_tables(p: int, m: int, at=None) -> list:
    """The p copies of the level m - 1 quotient inside level m, as tables
    from level m - 1 to level m indices (both in hat_labels order), each
    index looked up in at when given: copy i maps contracted c, s:{a,b},
    to i * inner + c, i.s:{a,b}, corner j to :{i,j} and corner i to ^i.
    The corners come last, so tables[i][j - p] is the index of :{i,j}
    (^i for j = i) at every level m >= 1."""
    inner = p * (p ** (m - 1) - 1) // 2  # contracted vertices at level m - 1
    if at is None:
        at = list(range(p * inner + p * (p - 1) // 2 + p))
    images = [[at[i - p]] * p for i in range(p)]  # [i][j]: where copy i puts corner j
    for (i, j), v in zip(combinations(range(p), 2), at[p * inner :]):
        images[i][j] = images[j][i] = v
    return [at[i * inner : (i + 1) * inner] + images[i] for i in range(p)]


def _quotient_rows(p: int, n: int, pos) -> list:
    """The level-n quotient's sorted rows as tuples over pos, in hat_labels
    order, copied through _hat_tables.  Level m keeps its contracted
    vertices' rows as one flat list of width 2(p - 1) and its corners'
    rows apart.  Copy i's corner i, ^i, is the largest index, so a row
    stays sorted where corner i came last in it; top pairs sort as made."""
    at = pos if n == 0 else range(p)
    rows, corners, w = [], [[at[j] for j in range(p) if j != k] for k in range(p)], 2 * (p - 1)
    pairs = list(combinations(range(p), 2))
    for m in range(1, n + 1):
        inner = len(rows) // w
        tables = _hat_tables(p, m, pos if m == n else None)
        moved = {}
        for i, table in enumerate(tables):
            # corner i comes last in every row holding it but level 1's
            # :{i,j} for j > i, which holds corner j after it
            for c in corners[i] if m == 2 else ():
                row = [*map(table.__getitem__, rows[c * w : (c + 1) * w])]
                row.remove(table[i - p])
                moved[i * inner + c] = row + [table[i - p]]
        tops = [sorted([*map(tables[i].__getitem__, corners[j]),
                        *map(tables[j].__getitem__, corners[i])]) for i, j in pairs]
        corners = [list(map(t.__getitem__, c)) for t, c in zip(tables, corners)]
        rows = _stacked(rows, tables, moved, w, m == n)
        rows += map(tuple, tops) if m == n else chain.from_iterable(tops)
    rows += map(tuple, corners)
    return rows


def _canonical_rows(pos, rows) -> list:
    """rows, in the generated labels' order, each sorted and moved to its
    label's position: the one per-row sort, for labels that do not come
    sorted (p >= 11, and pp at p = 10)."""
    for r, row in enumerate(rows):
        rows[r] = tuple(sorted(row))
    out = [None] * len(rows)
    for k, row in zip(pos, rows):
        out[k] = row
    return out


def _graph(names, labels, rank, pos, rows) -> LabeledGraph:
    """The graph of rows composed over pos in the order of labels."""
    if names != labels:
        rows = _canonical_rows(pos, rows)
    return LabeledGraph(names, rank, rows, sum(map(len, rows)) // 2)


def sierpinski(p: int, n: int) -> LabeledGraph:
    """The base graph on p^n words."""
    _check_family("s", p, n)
    labels = word_labels(p, n)
    names, rank, pos = _label_index(labels)
    rows = _word_rows(p, n, pos, [()] * p, p) if n else [()]
    return _graph(names, labels, rank, pos, rows)


def sierpinski_plus(p: int, n: int) -> LabeledGraph:
    """Base graph plus an apex adjacent to the p extreme vertices."""
    _check_family("plus", p, n)
    labels = word_labels(p, n) + [APEX_LABEL]
    names, rank, pos = _label_index(labels)
    rows = _word_rows(p, n, pos, [(pos[p**n],)] * p, p)
    rows.append(tuple(pos[: p**n : _one(p, n)]))  # the extremes i^n
    return _graph(names, labels, rank, pos, rows)


def sierpinski_plusplus(p: int, n: int) -> LabeledGraph:
    """Base graph with an extra copy one level smaller glued on.

    The copy's word u is labeled "p:u"; its extreme i^(n-1) is joined to
    the host extreme i^n, so every host extreme gets one new neighbor.
    """
    _check_family("pp", p, n)
    labels = word_labels(p, n) + copy_labels(p, n - 1)
    names, rank, pos = _label_index(labels)
    one, one_below = _one(p, n), _one(p, n - 1)
    extremes = [(i * one, p**n + i * one_below) for i in range(p)]
    rows = _word_rows(p, n, pos, [(pos[x],) for _, x in extremes], p + 1)
    for i, (host, x) in enumerate(extremes if n > 1 else ()):
        rows[x] = (pos[host],) + rows[x][:i] + rows[x][i + 1 :]
    return _graph(names, labels, rank, pos, rows)


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
    labels = hat_labels(p, n)
    names, rank, pos = _label_index(labels)
    g = _graph(names, labels, rank, pos, _quotient_rows(p, n, pos))
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
