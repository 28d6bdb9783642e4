import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lampk.errors import BudgetError, LampkError
from lampk.grouprep import _CATALOG, GroupRepData, builtin
from lampk.lamplighterk import (
    pv_check,
    trace_image_level,
    trace_image_pair,
    trace_of_chain,
    trace_of_word,
    trace_pair_of_chain,
    trace_pair_of_word,
)
from lampk.sampling import random_chain, window_range
from lampk.shiftwords import EMPTY_WORD, Word
from lampk.zchain import ZChain, alpha, coinvariant_class

words_st = st.builds(
    Word,
    st.dictionaries(st.integers(-4, 4), st.integers(1, 2), max_size=4),
)
chains_st = st.builds(
    ZChain,
    st.lists(st.tuples(words_st, st.integers(-9, 9)), max_size=4),
)


def test_trace_examples():
    c2 = builtin("C2")
    assert trace_of_word(c2, EMPTY_WORD) == 1
    assert trace_of_word(c2, Word({0: 1})) == Fraction(1, 2)
    s3 = builtin("S3")
    assert trace_of_word(s3, Word({0: 2, 1: 1})) == Fraction(2 * 1, 6 * 6)
    assert trace_of_word(s3, Word({0: 2, 1: 1})) == Fraction(1, 18)
    # reduced form
    t = trace_of_word(s3, Word({0: 2}))
    assert (t.numerator, t.denominator) == (1, 3)


def test_minimal_projection_traces_sum_to_one():
    # Desk-scale oracle: over all level-n tuples, the minimal projections
    # of each summand, dim-many apiece, fill the identity:
    # sum over tuples of dim * (dim / |F|^n) = 1.
    for name, n in (("S3", 2), ("Q8", 2), ("C3", 3)):
        g = builtin(name)
        total = Fraction(0)
        for t in product(range(g.num_irreps), repeat=n):
            dim = 1
            for idx in t:
                dim *= g.dims[idx]
            total += dim * Fraction(dim, g.order**n)
        assert total == 1


def test_trace_of_chain():
    c2 = builtin("C2")
    assert trace_of_chain(c2, ZChain()) == 0
    e = ZChain.of(EMPTY_WORD)
    assert trace_of_chain(c2, e - e) == 0
    chain = ZChain.of(Word({0: 1})) + ZChain.of(Word({1: 1}))
    assert trace_of_chain(c2, chain) == 1


@given(chains_st)
def test_trace_is_shift_invariant(chain):
    s3 = builtin("S3")
    assert trace_of_chain(s3, alpha(chain)) == trace_of_chain(s3, chain)
    m = chain
    assert trace_of_chain(s3, m - alpha(m)) == 0


@given(chains_st)
def test_trace_descends_to_classes(chain):
    s3 = builtin("S3")
    assert trace_of_chain(s3, chain) == trace_of_chain(
        s3, coinvariant_class(chain)
    )


# Catalog groups, and inline groups of up to five irreps built from their
# dims vector (|F| is the sum of the squares).
groups_st = st.sampled_from(["C2", "C3", "C5", *_CATALOG]).map(builtin) | st.lists(
    st.integers(1, 4), min_size=1, max_size=4
).map(lambda dims: (1, *dims)).filter(
    lambda dims: sum(d * d for d in dims) % dims.count(1) == 0
).map(lambda dims: GroupRepData("inline", sum(d * d for d in dims), dims))


def _assert_reduced(pair, value):
    num, den = pair
    assert type(num) is int and type(den) is int
    assert den > 0 and gcd(num, den) == 1
    assert (num, den) == (value.numerator, value.denominator)


@given(st.data())
def test_trace_pairs_are_reduced_and_are_the_fractions(data):
    group = data.draw(groups_st)
    letters = st.integers(1, group.num_irreps - 1)
    words = st.builds(Word, st.dictionaries(st.integers(-4, 4), letters, max_size=4))
    word = data.draw(words)
    chain = data.draw(st.builds(ZChain, st.lists(st.tuples(words, st.integers(-9, 9)), max_size=4)))
    level = data.draw(st.integers(0, 6))
    _assert_reduced(trace_pair_of_word(group, word), trace_of_word(group, word))
    _assert_reduced(trace_pair_of_chain(group, chain), trace_of_chain(group, chain))
    _assert_reduced(trace_image_pair(group, level), trace_image_level(group, level))
    expected = Fraction(0)
    for w, coeff in chain.items():
        expected += coeff * trace_of_word(group, w)
    assert trace_of_chain(group, chain) == expected


def test_trace_pairs_are_reduced_once():
    s3 = builtin("S3")
    assert trace_pair_of_word(s3, Word({0: 2})) == (1, 3)  # 2/6
    assert trace_pair_of_word(s3, EMPTY_WORD) == (1, 1)
    assert trace_pair_of_chain(s3, ZChain()) == (0, 1)
    assert trace_pair_of_chain(s3, ZChain.of(Word({0: 2}), 3)) == (1, 1)
    # 2/6 + 1/36 over the common denominator 36
    chain = ZChain.of(Word({0: 2})) + ZChain.of(Word({0: 1, 1: 1}))
    assert trace_pair_of_chain(s3, chain) == (13, 36)
    assert trace_image_pair(s3, 3) == (1, 216)


def test_trace_image_levels():
    assert trace_image_level(builtin("C2"), 1) == Fraction(1, 2)
    assert trace_image_level(builtin("C2"), 3) == Fraction(1, 8)
    assert trace_image_level(builtin("S3"), 1) == Fraction(1, 6)
    for name in ("C2", "C3", "S3", "Q8"):
        assert trace_image_level(builtin(name), 0) == 1


def _brute_force_trace_image(group, n):
    """gcd of the traces of all words in [0, n), over the denominator |F|^n."""
    denominator = group.order**n
    numerator_gcd = 0
    for vec in product(range(group.num_irreps), repeat=n):
        t = trace_of_word(group, Word((i, v) for i, v in enumerate(vec) if v))
        numerator_gcd = gcd(numerator_gcd, t.numerator * (denominator // t.denominator))
    return Fraction(numerator_gcd, denominator)


def test_trace_image_matches_brute_force():
    names = ["C2", "C3", "C4", "C5", *_CATALOG]
    for g in map(builtin, names):
        for n in range(0, 6 if g.num_irreps <= 3 else 4):
            expected = _brute_force_trace_image(g, n)
            assert trace_image_level(g, n) == expected, (g.name, n)


def test_trace_image_divisibility():
    for name in ("C2", "S3", "Q8"):
        g = builtin(name)
        for n in range(0, 4):
            a = trace_image_level(g, n)
            b = trace_image_level(g, n + 1)
            assert (a / b).denominator == 1  # b divides a


def test_trace_vanishes_on_random_coboundaries():
    rng = random.Random(7)
    g = builtin("S3")
    for _ in range(100):
        m = random_chain(rng, g, window_range(4))
        assert trace_of_chain(g, m - alpha(m)) == 0


def test_pv_check_rejects_bad_sizes():
    g = builtin("C2")
    for samples, window in ((0, 2), (5, -1)):
        with pytest.raises(LampkError):
            pv_check(g, samples=samples, window=window, seed=1)


def test_pv_check_refuses_a_window_whose_witness_could_pass_the_limit():
    # a sampled chain's witness has at most 20 * window entries
    g = builtin("C2")
    assert pv_check(g, samples=1, window=6553, seed=1).passed
    with pytest.raises(BudgetError, match="more than 131072 witness entries"):
        pv_check(g, samples=1, window=6554, seed=1)


def test_pv_check_passes_and_is_deterministic():
    g = builtin("C2")
    r1 = pv_check(g, samples=200, window=3, seed=11)
    r2 = pv_check(g, samples=200, window=3, seed=11)
    assert r1.passed and r2.passed
    assert r1.counterexamples == 0 and r1 == r2
    assert (r1.group, r1.samples, r1.window, r1.seed) == ("C2", 200, 3, 11)
    assert pv_check(builtin("S3"), samples=100, window=2, seed=5).passed
