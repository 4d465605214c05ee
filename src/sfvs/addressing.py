"""Vertex addressing for the Sierpinski-type graph families.

Every graph in this package is built over canonical label strings.  The
label grammar, with P = {0, ..., p-1}:

  * word vertices        digit string for p <= 10 ("0212"), comma separated
                         for p > 10 ("0,11,3"); the empty word renders as
                         "ε" when it stands alone
  * apex vertex          "w"
  * extra-copy vertices  "p:word", e.g. "4:210" (the word may be empty)
  * corner vertices      "^k", e.g. "^0"
  * contracted vertices  "prefix:{i,j}" with i < j, e.g. "0:{1,2}"; the
                         prefix may be empty (":{1,2}")

parse_vertex(format_vertex(v, p), family, p, n) == v for every valid vertex,
and malformed labels raise ParseError naming the offending position.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

__all__ = [
    "APEX",
    "APEX_LABEL",
    "Contracted",
    "EMPTY_WORD_LABEL",
    "Hat",
    "ParseError",
    "Prefixed",
    "Word",
    "copy_labels",
    "format_vertex",
    "format_word",
    "hat_labels",
    "hat_rank_labels",
    "parse_vertex",
    "parse_word",
    "rank_labels",
    "word_labels",
    "word_separator",
]

Word = tuple  # tuple[int, ...]

EMPTY_WORD_LABEL = "ε"
APEX_LABEL = "w"

FAMILIES = ("s", "plus", "pp", "hat")


class ParseError(ValueError):
    """A label that does not match the vertex grammar."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def word_separator(p: int) -> str:
    return "" if p <= 10 else ","


def _check_p(p: int) -> None:
    if p < 1:
        raise ValueError(f"alphabet size must be positive, got {p}")


def format_word(word: Word, p: int) -> str:
    """Render a word as a bare string; the empty word renders as ""."""
    _check_p(p)
    for k in word:
        if not 0 <= k < p:
            raise ValueError(f"symbol {k} out of range for p={p}")
    return word_separator(p).join(str(k) for k in word)


def parse_word(text: str, p: int, *, offset: int = 0) -> Word:
    """Inverse of format_word.  Positions in errors are absolute in the
    enclosing label when offset is given."""
    _check_p(p)
    if text == "":
        return ()
    if p <= 10:
        out = []
        for i, ch in enumerate(text):
            if not ch.isdigit():
                raise ParseError(f"invalid character {ch!r} in word", offset + i)
            k = int(ch)
            if k >= p:
                raise ParseError(f"symbol {k} out of range for p={p}", offset + i)
            out.append(k)
        return tuple(out)
    out = []
    pos = 0
    for token in text.split(","):
        if not token or not token.isdigit():
            raise ParseError(f"invalid symbol {token!r} in word", offset + pos)
        k = int(token)
        if k >= p:
            raise ParseError(f"symbol {k} out of range for p={p}", offset + pos)
        out.append(k)
        pos += len(token) + 1
    return tuple(out)


@dataclass(frozen=True, order=True)
class Hat:
    """Corner vertex of a contracted-family graph (an uncontracted extreme)."""

    k: int


@dataclass(frozen=True, order=True)
class Contracted:
    """Vertex obtained by contracting one matching edge.

    prefix is the shared leading word of the two contracted endpoints and
    pair the two symbols that are swapped between them, stored sorted.
    """

    prefix: Word
    pair: tuple

    def __post_init__(self):
        i, j = self.pair
        if i >= j:
            raise ValueError(f"pair must be sorted and distinct, got {self.pair}")


@dataclass(frozen=True, order=True)
class Prefixed:
    """Extra-copy vertex of the two-sided extension: a word lifted into the
    attached copy, rendered as "p:word"."""

    word: Word


class _Apex:
    __slots__ = ()

    def __repr__(self):
        return "APEX"


APEX = _Apex()


def format_vertex(v, p: int) -> str:
    """Canonical label of a vertex of any family."""
    if isinstance(v, tuple):
        return format_word(v, p) if v else EMPTY_WORD_LABEL
    if v is APEX:
        return APEX_LABEL
    if isinstance(v, Prefixed):
        return f"{p}:{format_word(v.word, p)}"
    if isinstance(v, Hat):
        if not 0 <= v.k < p:
            raise ValueError(f"symbol {v.k} out of range for p={p}")
        return f"^{v.k}"
    if isinstance(v, Contracted):
        i, j = v.pair
        if j >= p:
            raise ValueError(f"symbol {j} out of range for p={p}")
        return f"{format_word(v.prefix, p)}:{{{i},{j}}}"
    raise TypeError(f"not a vertex: {v!r}")


def word_labels(p: int, n: int) -> list:
    """Labels of every word of length n, in rank order (the word read as a
    base-p number)."""
    _check_p(p)
    if n == 0:
        return [EMPTY_WORD_LABEL]
    return list(map(word_separator(p).join, itertools.product(map(str, range(p)), repeat=n)))


def copy_labels(p: int, n: int) -> list:
    """Extra-copy labels "p:word" of every word of length n, in rank order."""
    _check_p(p)
    words = itertools.product(map(str, range(p)), repeat=n)
    return [f"{p}:{word_separator(p).join(w)}" for w in words]


def rank_labels(p: int, n: int, ranks, copy: bool = False) -> list:
    """The labels of the words of length n >= 1 with the given ranks, in
    the order given; with copy set, their extra-copy labels "p:word".
    Equal to looking the ranks up in word_labels / copy_labels, but
    formats only the p^(n-1) heads and appends each last symbol."""
    _check_p(p)
    if n < 1:
        raise ValueError(f"level must be at least 1, got {n}")
    if copy:
        heads = copy_labels(p, n - 1)
    else:
        heads = word_labels(p, n - 1) if n > 1 else [""]
    sep = word_separator(p) if n > 1 else ""
    lasts = [f"{sep}{k}" for k in range(p)]
    return [heads[r // p] + lasts[r % p] for r in ranks]


def hat_rank_labels(p: int, n: int, ranks) -> list:
    """The labels of the quotient's vertices at level n with the given
    ranks (their positions in hat_labels order), in the order given.
    Rank r < p is the corner ^r.  The contracted vertices come grouped by
    prefix, the prefixes in pre-order ("", then each symbol i followed by
    the prefixes one level down), so rank r >= p is prefix (r-p) // C(p,2)
    with pair (r-p) % C(p,2).  Formats the (p^n-1)/(p-1) prefixes once."""
    _check_p(p)
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    sep = word_separator(p)
    pairs = [f":{{{i},{j}}}" for i, j in itertools.combinations(range(p), 2)]
    prefixes = []
    for _ in range(n):
        prefixes = [""] + [f"{i}{sep}{q}" if q else str(i) for i in range(p) for q in prefixes]
    width = len(pairs) or 1  # p = 1 has no pairs: its one vertex is ^0
    return [
        f"^{r}" if r < p else prefixes[(r - p) // width] + pairs[(r - p) % width]
        for r in ranks
    ]


def hat_labels(p: int, n: int) -> list:
    """Labels of the quotient graph at level n: the corners ^0..^(p-1),
    then every prefix:{i,j} ordered by (prefix, i, j) as integer tuples."""
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    # p corners and C(p,2) pairs under each of (p^n-1)/(p-1) prefixes
    return hat_rank_labels(p, n, range(p + p * (p**n - 1) // 2))


def _parse_pair(text: str, p: int, offset: int) -> tuple:
    if not text.startswith("{"):
        raise ParseError("expected '{' to open a symbol pair", offset)
    if not text.endswith("}"):
        raise ParseError("expected '}' to close a symbol pair", offset + len(text) - 1)
    body = text[1:-1]
    comma = body.find(",")
    if comma < 0:
        raise ParseError("expected ',' inside a symbol pair", offset + 1)
    left, right = body[:comma], body[comma + 1 :]
    for part, at in ((left, offset + 1), (right, offset + 2 + comma)):
        if not part.isdigit():
            raise ParseError(f"invalid symbol {part!r} in pair", at)
    i, j = int(left), int(right)
    if j >= p:
        raise ParseError(f"symbol {j} out of range for p={p}", offset + 2 + comma)
    if i >= j:
        raise ParseError("pair must be sorted with distinct symbols", offset + 1)
    return (i, j)


def parse_vertex(label: str, family: str, p: int, n: int):
    """Parse a canonical label back into its vertex object.

    family is one of "s", "plus", "pp", "hat"; p the alphabet size and n the
    level, so that word lengths can be validated.
    """
    _check_p(p)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if label == "":
        raise ParseError("empty label", 0)

    def plain_word(text: str, length: int) -> Word:
        if text == EMPTY_WORD_LABEL and length == 0:
            return ()
        w = parse_word(text, p)
        if len(w) != length:
            raise ParseError(
                f"expected a word of length {length}, got {len(w)}", len(text)
            )
        return w

    if family == "s":
        return plain_word(label, n)

    if family == "plus":
        if label == APEX_LABEL:
            return APEX
        return plain_word(label, n)

    if family == "pp":
        if ":" in label:
            head, _, rest = label.partition(":")
            if head != str(p):
                raise ParseError(f"extra-copy prefix must be {p!r}", 0)
            word = (
                ()
                if rest == ""
                else parse_word(rest, p, offset=len(head) + 1)
            )
            if len(word) != n - 1:
                raise ParseError(
                    f"expected a word of length {n - 1} after the copy prefix",
                    len(label),
                )
            return Prefixed(word)
        return plain_word(label, n)

    # family == "hat"
    if label.startswith("^"):
        body = label[1:]
        if not body.isdigit():
            raise ParseError("expected a symbol after '^'", 1)
        k = int(body)
        if k >= p:
            raise ParseError(f"symbol {k} out of range for p={p}", 1)
        return Hat(k)
    colon = label.find(":")
    if colon < 0:
        raise ParseError("expected '^k' or 'prefix:{i,j}'", 0)
    prefix = parse_word(label[:colon], p)
    if len(prefix) > max(n - 1, 0):
        raise ParseError(
            f"prefix of length {len(prefix)} too long for level {n}", 0
        )
    if n == 0:
        raise ParseError("level 0 has corner vertices only", colon)
    pair = _parse_pair(label[colon + 1 :], p, colon + 1)
    return Contracted(prefix, pair)
