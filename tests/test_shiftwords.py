from itertools import product
from math import prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lampk.errors import BudgetError, GroupDataError, LampkError
from lampk.grouprep import GroupRepData, builtin
from lampk.shiftwords import (
    EMPTY_WORD,
    MAX_CANONICAL_WORDS,
    Word,
    _product_words,
    canonical_count,
    canonicalize,
    enumerate_canonical,
    shift,
)

words_st = st.builds(
    Word,
    st.dictionaries(st.integers(-6, 6), st.integers(1, 2), max_size=5),
)


def test_word_normal_form():
    assert Word({0: 0, 3: 1}) == Word({3: 1})
    assert Word().is_empty
    assert Word({2: 1, -1: 2}).entries == ((-1, 2), (2, 1))
    assert Word({1: 1, 0: 0}).entries == ((1, 1),)
    with pytest.raises(LampkError):
        Word([(0, 1), (0, 2)])


def test_shift_examples():
    assert shift(EMPTY_WORD, 5) == EMPTY_WORD
    assert shift(Word({0: 1}), 1) == Word({1: 1})
    assert shift(Word({0: 1, 2: 2}), -2) == Word({-2: 1, 0: 2})


@given(words_st, st.integers(-8, 8))
def test_shift_round_trip(w, k):
    # the translated word is the one the validating constructor builds
    moved = Word((p + k, idx) for p, idx in w.entries)
    assert shift(w, k) == moved and hash(shift(w, k)) == hash(moved)
    assert shift(shift(w, k), -k) == w
    assert shift(w, 0) == w
    if not w.is_empty:
        assert shift(w, k).min_support == w.min_support + k


def test_canonicalize_examples():
    assert canonicalize(Word({3: 1})) == (Word({0: 1}), 3)
    assert canonicalize(Word({-1: 1, 1: 2})) == (Word({0: 1, 2: 2}), -1)
    assert canonicalize(EMPTY_WORD) == (EMPTY_WORD, 0)


@given(words_st)
def test_canonicalize_round_trip(w):
    rep, offset = canonicalize(w)
    assert shift(rep, offset) == w
    assert rep.is_canonical()


def test_orbit_partition_brute_force():
    # Words with support in [-N, N], N = 2, r = 3: same rep iff some shift
    # carries one word to the other (k ranges over [-2N, 2N]).
    N, r = 2, 3
    span = 2 * N + 1
    words = [
        Word((p - N, v) for p, v in enumerate(vec) if v)
        for vec in product(range(r), repeat=span)
    ]
    for w1 in words[:: 7]:
        for w2 in words[:: 5]:
            brute = any(shift(w1, k) == w2 for k in range(-2 * N, 2 * N + 1))
            same_rep = canonicalize(w1)[0] == canonicalize(w2)[0]
            assert brute == same_rep, (w1, w2)


@given(words_st, st.integers(-6, 6).filter(lambda k: k != 0))
def test_only_empty_word_is_periodic(w, k):
    # Finite support forces shift-fixed words to be empty.
    assert (shift(w, k) == w) == w.is_empty


def test_enumerate_counts():
    c2 = builtin("C2")
    words = enumerate_canonical(c2, 3)
    assert words == [
        Word(),
        Word({0: 1}),
        Word({0: 1, 1: 1}),
        Word({0: 1, 2: 1}),
        Word({0: 1, 1: 1, 2: 1}),
    ]
    assert len(words) == canonical_count(c2, 3) == 5
    assert len(enumerate_canonical(c2, 1)) == 2
    s3 = builtin("S3")
    assert len(enumerate_canonical(s3, 2)) == canonical_count(s3, 2) == 7


def test_enumerate_brute_force_oracle():
    # Classify all dense vectors over the window into shift orbits and
    # count representatives; must agree with the enumeration.
    for name, max_len in (("C2", 3), ("C2", 5), ("S3", 2), ("C3", 3)):
        g = builtin(name)
        r = g.num_irreps
        seen = set()
        for vec in product(range(r), repeat=max_len):
            w = Word((p, v) for p, v in enumerate(vec) if v)
            seen.add(canonicalize(w)[0])
        enumerated = enumerate_canonical(g, max_len)
        assert set(enumerated) == seen
        assert len(enumerated) == len(seen)


def test_enumerate_properties():
    g = builtin("S3")
    words = enumerate_canonical(g, 4)
    assert len(set(words)) == len(words)
    assert all(w.is_canonical() for w in words)
    # length-lex order
    keys = [w.sort_key() for w in words]
    assert keys == sorted(keys)


@given(words_st, words_st)
def test_sort_key_orders_as_the_dense_vector(a, b):
    def dense_key(w):
        lo = w.min_support or 0
        dense = [0] * w.window_length()
        for p, idx in w.entries:
            dense[p - lo] = idx
        return (w.window_length(), dense, lo)

    assert (a.sort_key() < b.sort_key()) == (dense_key(a) < dense_key(b))
    assert (a.sort_key() == b.sort_key()) == (a == b)


@given(words_st, words_st)
def test_sort_key_sorts_as_the_offset_from_the_left_end(a, b):
    # the key before the offsets were counted from the right end
    def left_key(w):
        if w.is_empty:
            return (0, 0)
        lo = w.min_support
        pairs = [x for p, idx in w.entries for x in (lo - p, idx)]
        return (w.window_length(), *pairs, lo)

    assert (a.sort_key() < b.sort_key()) == (left_key(a) < left_key(b))
    assert (a.sort_key() == b.sort_key()) == (left_key(a) == left_key(b))
    offsets = a.sort_key()[1:-1:2]
    assert all(1 <= off <= a.window_length() for off in offsets)


@pytest.mark.parametrize(
    "name, max_len", [("C2", 1), ("C2", 6), ("C3", 4), ("klein4", 4), ("S3", 3), ("A5", 4)]
)
def test_enumerate_is_the_word_built_list(name, max_len):
    # the list the validating constructor built, in the same order
    r = builtin(name).num_irreps
    expected = [Word()]
    expected += [Word({0: g}) for g in range(1, r)]
    for length in range(2, max_len + 1):
        for first in range(1, r):
            for interior in product(range(r), repeat=length - 2):
                for last in range(1, r):
                    vec = (first, *interior, last)
                    expected.append(Word((i, v) for i, v in enumerate(vec) if v))
    words = enumerate_canonical(builtin(name), max_len)
    assert [w.entries for w in words] == [w.entries for w in expected]


@st.composite
def window_choices_st(draw):
    """The places of one window, for a catalog group or inline dims: each
    place some of the letters by ascending index, after ``()`` at an inner
    place that may be left out."""
    if draw(st.booleans()):
        group = builtin(draw(st.sampled_from(["C2", "C3", "klein4", "S3", "A5"])))
    else:
        dims = (1, *draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
        try:
            group = GroupRepData("inline", sum(d * d for d in dims), dims)
        except GroupDataError:
            assume(False)
    positions = sorted(draw(st.sets(st.integers(-8, 8), min_size=1, max_size=5)))
    choices = []
    for k, p in enumerate(positions):
        indices = draw(st.sets(st.integers(1, group.num_irreps - 1), min_size=1))
        letters = tuple(((p, g),) for g in sorted(indices))
        inner = 0 < k < len(positions) - 1
        choices.append(((), *letters) if inner and draw(st.booleans()) else letters)
    return choices


@given(window_choices_st())
def test_product_words_are_in_word_order(choices):
    words = list(_product_words(choices))
    assert len(words) == prod(len(c) for c in choices)
    assert all(Word(w.entries).entries == w.entries for w in words)
    keys = [w.sort_key() for w in words]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerate_rejects_bad_len():
    with pytest.raises(LampkError):
        enumerate_canonical(builtin("C2"), 0)


def test_enumerate_size_guard():
    # C2 has 2^(n-1) + 1 canonical words at max_len n, C3 has 2*3^(n-1) + 1.
    assert canonical_count(builtin("C2"), 17) == MAX_CANONICAL_WORDS + 1
    for name, max_len in (("C2", 17), ("C3", 11), ("A5", 8), ("C2", 10**9)):
        with pytest.raises(BudgetError):
            enumerate_canonical(builtin(name), max_len)
    c3 = builtin("C3")
    assert len(enumerate_canonical(c3, 10)) == canonical_count(c3, 10)
