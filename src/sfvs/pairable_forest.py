"""Induced-forest constructions for the word-based families.

The engine is a closure operator on "pairable" word sets.  A set of words
of equal length is pairable when grouping by head (all symbols but the
last) yields exactly two words per occupied head.  The closure of one
block {s.a, s.b} lives one level deeper:

    from the block's own heads:   {saa, sab} and {sba, sbb}
    from every other symbol k:    {sk(k-1), sk(k+1)}   (mod p)

Closing the seed {1, 2} a total of n-1 times produces a 2p^(n-1)-vertex
set inducing a forest in the level-n base graph; its complement is a
minimum feedback vertex set.  Small alphabet variants for the plus and
plusplus families are built on top.  The constructions close blocks on
word ranks (a word read as a base-p number) and format only the ranks
they keep with addressing.rank_labels; the public closures keep word
tuples.  Both follow one closure rule, _child_pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .addressing import (
    APEX_LABEL,
    EMPTY_WORD_LABEL,
    copy_labels,
    format_word,
    parse_word,
    rank_labels,
    word_labels,
)
from .generators import expected_order, sierpinski_plusplus
from .graph_core import LabeledGraph, _forest_positions

__all__ = [
    "NotPairableError",
    "PairablePartition",
    "closure",
    "closure_block",
    "closure_split",
    "forest_plus",
    "forest_plusplus",
    "forest_sierpinski",
    "fvs_sierpinski",
    "pairable_partition",
]


class NotPairableError(ValueError):
    """Raised when a word set admits no head-disjoint pairing."""

    def __init__(self, head_label: str, count: int):
        super().__init__(
            f"head {head_label!r} holds {count} word(s), needs exactly 2"
        )
        self.head = head_label


@dataclass(frozen=True)
class PairablePartition:
    """The unique block partition of a pairable word set.

    blocks holds (word, word) pairs ordered within each block and between
    blocks; both words of a block share a head and differ in the last
    symbol.
    """

    blocks: tuple

    @property
    def heads(self) -> tuple:
        return tuple(b[0][:-1] for b in self.blocks)

    def words(self) -> frozenset:
        return frozenset(w for b in self.blocks for w in b)

    def labels(self, p: int) -> frozenset:
        return frozenset(format_word(w, p) for w in self.words())

    def __len__(self) -> int:
        return 2 * len(self.blocks)


def pairable_partition(labels, p: int) -> PairablePartition:
    """Group a word set into its pairable blocks.

    Words must all have the same positive length.  Fails with
    NotPairableError if any head does not hold exactly two words.
    """
    words = sorted(parse_word(str(s), p) for s in labels)
    if len(set(words)) != len(words):
        raise ValueError("duplicate words in input")
    if words and any(len(w) != len(words[0]) for w in words):
        raise ValueError("words of mixed lengths")
    if words and len(words[0]) == 0:
        raise ValueError("the empty word cannot be paired")
    by_head = {}
    for w in words:
        by_head.setdefault(w[:-1], []).append(w)
    for head, group in sorted(by_head.items()):
        if len(group) != 2:
            label = format_word(head, p) or EMPTY_WORD_LABEL
            raise NotPairableError(label, len(group))
    return PairablePartition(
        tuple((g[0], g[1]) for _, g in sorted(by_head.items()))
    )


def _child_pairs(a: int, b: int, p: int) -> list:
    """The closure rule: the last symbols that child k of a block with last
    symbols (a, b) keeps, for k = 0..p-1.  Children a and b keep (a, b),
    every other child k its cyclic neighbours (k-1, k+1)."""
    return [(a, b) if k == a or k == b else ((k - 1) % p, (k + 1) % p) for k in range(p)]


def _closure_block_split(block, p: int):
    """One block's closure, split into its head-extending part and the
    other-symbol part.  block is a pair of word tuples."""
    if p < 3:
        raise ValueError(f"the closure needs at least 3 symbols, got {p}")
    wa, wb = block
    s, a, b = wa[:-1], wa[-1], wb[-1]
    if wb[:-1] != s or a == b:
        raise ValueError(f"not a block: {block!r}")
    own, other = [], []
    for k, (x, y) in enumerate(_child_pairs(a, b, p)):
        (own if k == a or k == b else other).append(((*s, k, x), (*s, k, y)))
    return own, other


def closure_block(block, p: int) -> set:
    """All 2p labels one level below a single block.

    block may be given as labels or word tuples; the two words must share
    a head.
    """
    pair = tuple(sorted(w if isinstance(w, tuple) else parse_word(str(w), p) for w in block))
    if len(pair) != 2:
        raise ValueError(f"a block has exactly 2 words, got {len(pair)}")
    own, other = _closure_block_split(pair, p)
    return {format_word(w, p) for blk in own + other for w in blk}


def closure(partition: PairablePartition, p: int) -> PairablePartition:
    """Close every block; the result is pairable with p times as many
    words, its heads being every one-symbol extension of the old heads."""
    blocks = []
    for block in partition.blocks:
        own, other = _closure_block_split(block, p)
        blocks.extend(own)
        blocks.extend(other)
    blocks.sort()
    heads = [b[0][:-1] for b in blocks]
    assert len(set(heads)) == len(heads)
    return PairablePartition(tuple(blocks))


def closure_split(partition: PairablePartition, p: int):
    """The closure's words split by origin: (head-extending part,
    other-symbol part).  No edge of the level-m base graph joins the two
    parts, which is what makes the closure induce a forest."""
    part1, part2 = set(), set()
    for block in partition.blocks:
        own, other = _closure_block_split(block, p)
        part1.update(format_word(w, p) for blk in own for w in blk)
        part2.update(format_word(w, p) for blk in other for w in blk)
    return frozenset(part1), frozenset(part2)


def _closed_ranks(a: int, b: int, p: int, n: int) -> list:
    """Word ranks of the (n-1)-fold closure of the seed {a, b}.  A block is
    (head rank, x, y), holding the words head.x and head.y, and child k of
    a block has head rank head*p + k."""
    blocks = [(0, a, b)]
    for _ in range(n - 1):
        blocks = [
            (h * p + k, x, y)
            for h, c, d in blocks
            for k, (x, y) in enumerate(_child_pairs(c, d, p))
        ]
    return [h * p + x for h, x, _ in blocks] + [h * p + y for h, _, y in blocks]


def forest_sierpinski(p: int, n: int) -> set:
    """A maximum induced forest of the level-n base graph, as labels.

    For p >= 3 this is the (n-1)-fold closure of {1, 2}, of size
    2p^(n-1).  For p = 2 the graph is a path, so everything is returned.
    """
    if p < 2:
        raise ValueError(f"need at least 2 symbols, got {p}")
    if n < 1:
        raise ValueError(f"level must be at least 1, got {n}")
    if p == 2:
        return set(word_labels(p, n))
    return set(rank_labels(p, n, _closed_ranks(1, 2, p, n)))


def fvs_sierpinski(p: int, n: int) -> set:
    """Complement of forest_sierpinski: a minimum feedback vertex set of
    size p^(n-1) * (p-2)."""
    forest = forest_sierpinski(p, n)
    return set(word_labels(p, n)) - forest


def forest_plus(p: int, n: int) -> set:
    """Maximum induced forest of the apex family.

    Swaps the extreme 1^n out of the base forest for the word 1^(n-1).0
    and the apex; the apex then has only the extreme 2^n as a forest
    neighbor.  Needs n >= 2 for p >= 3: at n = 1 the graph is complete
    and no forest of this size exists.
    """
    if p < 2:
        raise ValueError(f"need at least 2 symbols, got {p}")
    if n < 1:
        raise ValueError(f"level must be at least 1, got {n}")
    if p == 2:
        return forest_sierpinski(2, n)
    if n == 1:
        raise ValueError("no level-1 construction: the apex graph is complete")
    ranks = _closed_ranks(1, 2, p, n)
    ones = (p**n - 1) // (p - 1)  # the rank of 1^n
    ranks[ranks.index(ones)] = ones - 1  # the rank of 1^(n-1).0
    forest = set(rank_labels(p, n, ranks))
    forest.add(APEX_LABEL)
    return forest


def _copy_seed(p: int) -> tuple:
    # the copy's forest must keep its extremes off the host's attachment
    # points; {3,4} does that outright, the small alphabets get the best
    # available substitute
    if p >= 5:
        return 3, 4
    if p == 4:
        return 0, 3
    return 0, 1


def forest_plusplus(p: int, n: int, graph: LabeledGraph | None = None) -> set:
    """Maximum induced forest of the extended family: the host forest plus
    a forest of the attached copy.

    The copy seed is chosen so that at most one attachment edge lands
    inside the union, and that one (p = 3 only) bridges two components.
    At p = 2 the union is everything but the host's extreme 0^n.  The
    union is checked for acyclicity; a graph of the wrong order or a
    cycle raises GraphError, the cycle as witness.  Pass the prebuilt
    graph to skip the internal construction.
    """
    if p < 2:
        raise ValueError(f"need at least 2 symbols, got {p}")
    if n < 1:
        raise ValueError(f"level must be at least 1, got {n}")
    if p == 2:
        union = set(word_labels(p, n)) | set(copy_labels(p, n - 1))
        union.remove(format_word((0,) * n, p))
    elif n < 2:
        raise ValueError("no level-1 construction: the copy collapses to a point")
    else:
        host = forest_sierpinski(p, n)
        copy_ranks = _closed_ranks(*_copy_seed(p), p, n - 1)
        union = host.union(rank_labels(p, n - 1, copy_ranks, copy=True))
    g = sierpinski_plusplus(p, n) if graph is None else graph
    _forest_positions(g, union, expected_order("pp", p, n))
    return union
