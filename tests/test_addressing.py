import itertools
import random

import pytest
from hypothesis import given, strategies as st

from sfvs.addressing import (
    APEX,
    APEX_LABEL,
    Contracted,
    EMPTY_WORD_LABEL,
    FAMILIES,
    Hat,
    ParseError,
    Prefixed,
    copy_labels,
    format_vertex,
    format_word,
    hat_labels,
    hat_rank_labels,
    parse_vertex,
    parse_word,
    rank_labels,
    word_labels,
    word_separator,
)


def test_separator_switches_at_eleven_symbols():
    assert word_separator(10) == ""
    assert word_separator(11) == ","


@pytest.mark.parametrize(
    "word,p,label",
    [
        ((), 3, ""),
        ((0, 2, 1), 3, "021"),
        ((9,), 10, "9"),
        ((0, 11, 3), 12, "0,11,3"),
        ((10, 10), 11, "10,10"),
    ],
)
def test_word_round_trip(word, p, label):
    assert format_word(word, p) == label
    assert parse_word(label, p) == word


@given(st.integers(2, 15).flatmap(lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), max_size=6))))
def test_word_round_trip_property(case):
    p, symbols = case
    word = tuple(symbols)
    assert parse_word(format_word(word, p), p) == word


def test_format_word_rejects_out_of_range():
    with pytest.raises(ValueError):
        format_word((3,), 3)


@pytest.mark.parametrize(
    "text,p,position",
    [
        ("0x2", 3, 1),
        ("03", 3, 1),
        ("0,99,3", 12, 2),
        ("2,,1", 12, 2),
    ],
)
def test_parse_word_reports_position(text, p, position):
    with pytest.raises(ParseError) as err:
        parse_word(text, p)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


def test_parse_word_offset_shifts_positions():
    with pytest.raises(ParseError) as err:
        parse_word("0x", 3, offset=5)
    assert err.value.position == 6


def test_contracted_requires_sorted_distinct_pair():
    Contracted((0,), (1, 2))
    with pytest.raises(ValueError):
        Contracted((0,), (2, 1))
    with pytest.raises(ValueError):
        Contracted((0,), (1, 1))


@pytest.mark.parametrize(
    "vertex,p,label",
    [
        ((), 3, EMPTY_WORD_LABEL),
        ((0, 1), 3, "01"),
        (APEX, 3, APEX_LABEL),
        (Prefixed((2, 1)), 4, "4:21"),
        (Prefixed(()), 3, "3:"),
        (Hat(2), 3, "^2"),
        (Contracted((), (1, 2)), 3, ":{1,2}"),
        (Contracted((0, 2), (0, 1)), 3, "02:{0,1}"),
        (Contracted((11,), (0, 10)), 12, "11:{0,10}"),
    ],
)
def test_format_vertex(vertex, p, label):
    assert format_vertex(vertex, p) == label


@pytest.mark.parametrize(
    "vertex,error,message",
    [
        (Hat(3), ValueError, "symbol 3 out of range for p=3"),
        (Contracted((), (0, 3)), ValueError, "symbol 3 out of range for p=3"),
        (object(), TypeError, "not a vertex"),
        (Contracted((), (-1, 2)), ValueError, "symbol -1 out of range for p=3"),
    ],
)
def test_format_vertex_rejects(vertex, error, message):
    with pytest.raises(error, match=message):
        format_vertex(vertex, 3)


@pytest.mark.parametrize(
    "label,family,p,n,vertex",
    [
        (EMPTY_WORD_LABEL, "s", 3, 0, ()),
        ("021", "s", 3, 3, (0, 2, 1)),
        ("w", "plus", 5, 2, APEX),
        ("11", "plus", 2, 2, (1, 1)),
        ("4:21", "pp", 4, 3, Prefixed((2, 1))),
        ("3:", "pp", 3, 1, Prefixed(())),
        ("102", "pp", 3, 3, (1, 0, 2)),
        ("^2", "hat", 3, 0, Hat(2)),
        (":{1,2}", "hat", 3, 2, Contracted((), (1, 2))),
        ("02:{0,1}", "hat", 3, 3, Contracted((0, 2), (0, 1))),
    ],
)
def test_parse_vertex(label, family, p, n, vertex):
    assert parse_vertex(label, family, p, n) == vertex
    assert format_vertex(vertex, p) == label


@pytest.mark.parametrize(
    "label,family,p,n,position",
    [
        ("", "s", 3, 1, 0),
        ("012", "s", 3, 2, 3),
        ("^3", "hat", 3, 1, 1),
        (":{2,1}", "hat", 3, 2, 2),
        (":{1,5}", "hat", 3, 2, 4),
        (":{1;2}", "hat", 3, 2, 2),
        (":{1,2", "hat", 3, 1, 4),  # "expected '}' to close a symbol pair"
        (":{1,2}", "hat", 3, 0, 0),
        ("01", "hat", 3, 2, 0),
        # digits int() reads that the grammar does not write
        ("²", "s", 3, 1, 0),
        ("^²", "hat", 3, 1, 1),
        (":{1,²}", "hat", 3, 1, 4),
        ("^٣", "hat", 4, 1, 1),
        # leading zeros
        ("^03", "hat", 4, 1, 1),
        ("0:{01,2}", "hat", 4, 2, 3),
        ("1,02", "s", 12, 2, 2),
    ],
)
def test_parse_vertex_rejects(label, family, p, n, position):
    with pytest.raises(ParseError) as err:
        parse_vertex(label, family, p, n)
    assert err.value.position == position


def test_parse_vertex_checks_copy_prefix():
    with pytest.raises(ParseError):
        parse_vertex("5:21", "pp", 4, 3)
    with pytest.raises(ParseError):
        parse_vertex("4:210", "pp", 4, 3)


def test_parse_vertex_rejects_long_contraction_prefix():
    with pytest.raises(ParseError):
        parse_vertex("00:{0,1}", "hat", 3, 2)


def test_parse_vertex_unknown_family():
    with pytest.raises(ValueError):
        parse_vertex("0", "nope", 3, 1)


# symbols canonical and not, and every other character of the grammar
_LABEL_PIECES = [
    "0", "1", "2", "3", "4", "01", "02", "10", "11", "²", "٣",
    ",", ":", "{", "}", "^", "w", EMPTY_WORD_LABEL,
]


@given(
    st.lists(st.sampled_from(_LABEL_PIECES), max_size=7).map("".join),
    st.sampled_from(FAMILIES),
    st.sampled_from([2, 3, 4, 5, 11, 12]),
    st.integers(0, 3),
)
def test_accepted_labels_are_canonical(label, family, p, n):
    try:
        vertex = parse_vertex(label, family, p, n)
    except ParseError:
        return
    assert format_vertex(vertex, p) == label


def test_prefix_triangle_corner_rules(reference_forests):
    prefix_triangle = reference_forests.prefix_triangle
    assert prefix_triangle(1, Hat(1)) == Hat(1)
    assert prefix_triangle(1, Hat(0)) == Contracted((), (0, 1))
    assert prefix_triangle(0, Hat(2)) == Contracted((), (0, 2))
    assert prefix_triangle(2, Contracted((0,), (1, 2))) == Contracted((2, 0), (1, 2))
    with pytest.raises(TypeError):
        prefix_triangle(0, (0, 1))


def _hat_build_order(p: int, n: int) -> list:
    """Every quotient vertex at level n in build order: the contracted
    vertices by prefix padded to length n with a symbol past p - 1, so
    that a prefix follows its extensions (post-order), then by pair; then
    the corners."""
    pairs = list(itertools.combinations(range(p), 2))
    prefixes = (s for m in range(n) for s in itertools.product(range(p), repeat=m))
    contracted = sorted(
        (Contracted(s, q) for s in prefixes for q in pairs),
        key=lambda v: (v.prefix + (p,) * (n - len(v.prefix)), v.pair),
    )
    return contracted + [Hat(k) for k in range(p)]


@pytest.mark.parametrize("p", [2, 3, 4, 11, 12])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_bulk_formatters_match_format_vertex(p, n):
    words = list(itertools.product(range(p), repeat=n))
    labels = word_labels(p, n)
    assert labels == [format_vertex(w, p) for w in words]
    assert [parse_vertex(label, "s", p, n) for label in labels] == words

    labels = copy_labels(p, n)
    assert labels == [format_vertex(Prefixed(w), p) for w in words]
    assert [parse_vertex(label, "pp", p, n + 1) for label in labels] == list(map(Prefixed, words))

    # the build order: the contracted vertices in post-order, then the corners
    vertices = _hat_build_order(p, n)
    labels = hat_labels(p, n)
    assert labels == [format_vertex(v, p) for v in vertices]
    assert [parse_vertex(label, "hat", p, n) for label in labels] == vertices


@pytest.mark.parametrize("p", [2, 3, 4, 9, 10, 11, 12])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_labels_match_the_bulk_lists(p, n):
    # every rank in order, then a scrambled sample with repeats; n = 1 has
    # the empty head, and p > 10 the comma separator
    rng = random.Random(p * 10 + n)
    everything = range(p**n)
    sample = [rng.randrange(p**n) for _ in range(50)]
    for ranks in (everything, sample, []):
        for copy, full in ((False, word_labels(p, n)), (True, copy_labels(p, n))):
            assert rank_labels(p, n, ranks, copy=copy) == [full[r] for r in ranks]


@pytest.mark.parametrize("p,n", [(1, 2), (2, 1), (3, 2), (11, 2)])
def test_rank_formatters_reject_ranks_out_of_range(p, n):
    # a negative rank would index from the end and a rank past the end
    # raise IndexError; each is named, also among good ranks and from an
    # iterator, which is read once.  The last hat rank is a corner
    for full, labels in (
        (word_labels(p, n), lambda ranks: rank_labels(p, n, ranks)),
        (copy_labels(p, n), lambda ranks: rank_labels(p, n, ranks, copy=True)),
        (hat_labels(p, n), lambda ranks: hat_rank_labels(p, n, ranks)),
    ):
        count = len(full)
        assert labels(iter([count - 1, 0])) == [full[-1], full[0]]
        for bad in (-1, count):
            with pytest.raises(ValueError, match=f"rank {bad} out of range for {count} labels"):
                labels(iter([0, bad, count - 1]))


@pytest.mark.parametrize(
    "p,n", [(p, n) for p in range(1, 13) for n in range(5) if p**n <= 5000]
)
def test_hat_rank_labels_match_format_vertex(p, n):
    # the reference formats every (prefix, pair) vertex one at a time;
    # p = 1 has the corner only, and p >= 11 the comma separator
    full = [format_vertex(v, p) for v in _hat_build_order(p, n)]
    rng = random.Random(p * 10 + n)
    sample = [rng.randrange(len(full)) for _ in range(50)]
    assert hat_labels(p, n) == full
    for ranks in (range(len(full)), sample, sorted(set(sample)), []):
        assert hat_rank_labels(p, n, ranks) == [full[r] for r in ranks]


@pytest.mark.parametrize("p,n", [(p, n) for p in range(1, 13) for n in range(5)])
def test_hat_rank_labels_are_a_lookup_into_hat_labels(p, n):
    # the rank formatter builds only the prefixes; every rank in order,
    # the corners included, then scrambled samples with repeats
    full = hat_labels(p, n)
    rng = random.Random(p * 100 + n)
    assert hat_rank_labels(p, n, range(len(full))) == full
    for size in (1, 7, 200):
        ranks = [rng.randrange(len(full)) for _ in range(size)]
        assert hat_rank_labels(p, n, ranks) == [full[r] for r in ranks]


@pytest.mark.parametrize(
    "p,n", [(p, n) for p in range(1, 13) for n in range(5) if p**n <= 5000]
)
def test_hat_post_labels_are_sorted_hat_labels_below_eleven_symbols(p, n):
    # hat_labels, its prefixes in post-order, lists every quotient vertex
    # once, in sorted order exactly when p <= 10
    got = hat_labels(p, n)
    every = [format_vertex(v, p) for v in _hat_build_order(p, n)]
    assert sorted(got) == sorted(every) and len(set(got)) == len(got)
    assert (got == sorted(got)) == (p <= 10)


def test_rank_labels_reject_bad_arguments():
    assert rank_labels(12, 2, [13]) == ["1,1"]
    assert rank_labels(12, 1, [11], copy=True) == ["12:11"]
    with pytest.raises(ValueError, match="level must be at least 1, got 0"):
        rank_labels(3, 0, [0])
    with pytest.raises(ValueError, match="alphabet size must be positive, got 0"):
        rank_labels(0, 2, [])
    with pytest.raises(ValueError, match="level must be nonnegative, got -1"):
        hat_labels(3, -1)
    with pytest.raises(ValueError, match="level must be nonnegative, got -1"):
        hat_rank_labels(3, -1, [0])
    with pytest.raises(ValueError, match="alphabet size must be positive, got 0"):
        hat_labels(0, 2)
