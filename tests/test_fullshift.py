import json
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lampk import fullshift, jsonio, zchain
from lampk.cli import main
from lampk.errors import BudgetError, LampkError, NonAbelianGroupError
from lampk.fullshift import (
    MAX_SCAN_EVALUATIONS,
    MAX_SCAN_PATTERNS,
    LivsicReport,
    beta_eval,
    coboundary_decompose,
    cylinder_to_chain,
    default_period_bound,
    livsic_check,
    orbit_representatives,
    periodic_orbit_sum,
)
from lampk.grouprep import builtin
from lampk.sampling import random_chain, random_word
from lampk.shiftwords import EMPTY_WORD, Word
from lampk.zchain import (
    MAX_CYLINDER_TERMS,
    ZChain,
    alpha,
    coinvariant_class,
    decompose,
)

C2 = builtin("C2")
C3 = builtin("C3")
KLEIN4 = builtin("klein4")

words_st = st.builds(
    Word,
    st.dictionaries(st.integers(-3, 4), st.integers(1, 2), max_size=3),
)
chains_st = st.builds(
    ZChain,
    st.lists(st.tuples(words_st, st.integers(-5, 5)), max_size=4),
)
points_st = st.lists(st.integers(0, 2), min_size=1, max_size=5).map(tuple)


def shifted(x, k):
    """The periodic point x translated by k: the coordinate at i becomes the
    old one at i - k."""
    k %= len(x)
    return x[len(x) - k:] + x[:len(x) - k]


def test_periodic_point_basics():
    x = (1, 0, 1)
    # a pattern is read periodically, at negative positions too
    at = [beta_eval(C2, ZChain.of(Word({i: 1})), x) for i in range(-3, 6)]
    assert at == [1, 0, 1] * 3
    assert shifted(x, 1) == (1, 1, 0) and shifted(x, -1) == x[1:] + x[:1]
    assert shifted(x, 3) == x
    # a list is the same point as the tuple
    f = ZChain.of(Word({0: 1, 1: 1})) + ZChain.of(Word({-1: 1}), 2)
    assert beta_eval(C2, f, [1, 0, 1]) == beta_eval(C2, f, x)
    assert periodic_orbit_sum(C2, f, [1, 0, 1]) == periodic_orbit_sum(C2, f, x)


@pytest.mark.parametrize("pattern", [(), [], (0, -1), (1, 2, -3), (7,), (0, 2)])
def test_malformed_patterns_are_refused(pattern):
    # a point of the C2 full shift takes the values 0 and 1, one of C3 0 to 2
    for group in (C2,) if pattern == (0, 2) else (C3, C2):
        for evaluate in (beta_eval, periodic_orbit_sum):
            with pytest.raises(LampkError):
                evaluate(group, ZChain.of(EMPTY_WORD), pattern)


def test_beta_eval_examples():
    assert beta_eval(C2, ZChain.of(EMPTY_WORD), (0, 1)) == 1
    assert beta_eval(C2, ZChain.of(Word({0: 1})), (1,)) == 1
    assert beta_eval(C2, ZChain.of(Word({0: 1, 1: 1})), (1, 0)) == 0
    # the eventually-trivial points {2: 1, 5: 1} and {5: 1}, as patterns of
    # period 6 that hold the window 0..5
    assert beta_eval(C2, ZChain.of(Word({2: 1})), (0, 0, 1, 0, 0, 1)) == 1
    assert beta_eval(C2, ZChain.of(Word({2: 1})), (0, 0, 0, 0, 0, 1)) == 0


def test_beta_requires_abelian():
    s3 = builtin("S3")
    with pytest.raises(NonAbelianGroupError):
        beta_eval(s3, ZChain(), (0,))
    with pytest.raises(NonAbelianGroupError):
        cylinder_to_chain(s3, [(0, 1)])
    with pytest.raises(NonAbelianGroupError):
        coboundary_decompose(s3, ZChain())
    with pytest.raises(NonAbelianGroupError):
        livsic_check(s3, ZChain())


@given(chains_st, chains_st, points_st)
def test_beta_additive(c1, c2, x):
    assert beta_eval(C3, c1 + c2, x) == beta_eval(C3, c1, x) + beta_eval(C3, c2, x)


@given(chains_st, points_st)
def test_beta_shift_equivariant(c, x):
    assert beta_eval(C3, alpha(c), x) == beta_eval(C3, c, x[1:] + x[:1])
    assert beta_eval(C3, alpha(c, -1), x) == beta_eval(C3, c, x[-1:] + x[:-1])


def test_cylinder_examples():
    assert cylinder_to_chain(C2, [(0, 1)]) == ZChain.of(Word({0: 1}))
    assert cylinder_to_chain(C2, [(0, 0)]) == ZChain.of(
        EMPTY_WORD
    ) - ZChain.of(Word({0: 1}))
    expected = (
        ZChain.of(Word({1: 1}))
        - ZChain.of(Word({0: 1, 1: 1}))
        - ZChain.of(Word({0: 2, 1: 1}))
    )
    assert cylinder_to_chain(C3, [(0, 0), (1, 1)]) == expected


def test_cylinder_c3_example_by_evaluation():
    # Verify the expansion on all 9 two-coordinate patterns.
    chain = cylinder_to_chain(C3, [(0, 0), (1, 1)])
    for v0, v1 in product(range(3), repeat=2):
        x = (v0, v1)
        indicator = 1 if (v0 == 0 and v1 == 1) else 0
        assert beta_eval(C3, chain, x) == indicator


@given(
    st.dictionaries(st.integers(-2, 2), st.integers(0, 2), max_size=3),
    st.lists(st.integers(0, 2), min_size=1, max_size=6),
)
def test_cylinder_indicator_oracle(constraints, pattern):
    # The expanded chain evaluates exactly as the cylinder membership test,
    # and all coefficients are +-1.
    chain = cylinder_to_chain(C3, constraints.items())
    assert all(c in (1, -1) for _, c in chain.items())
    member = all(pattern[p % len(pattern)] == v for p, v in constraints.items())
    assert beta_eval(C3, chain, pattern) == (1 if member else 0)


def test_cylinder_value_range_checked():
    with pytest.raises(LampkError):
        cylinder_to_chain(C2, [(0, 5)])


def test_cylinder_size_guard():
    # r^k terms for k trivial pins: C3 with 10 pins is 59 049 terms, 11 is
    # 177 147; C2 with 17 pins is 131 072.
    assert 3**10 <= MAX_CYLINDER_TERMS < 3**11
    assert len(cylinder_to_chain(C2, [(p, 0) for p in range(10)])) == 2**10
    for group, pins in ((C2, 17), (C2, 40), (C3, 11), (KLEIN4, 10**4)):
        with pytest.raises(BudgetError):
            cylinder_to_chain(group, [(p, 0) for p in range(pins)])
    # pins to nontrivial letters add no terms
    spec = [(p, 1) for p in range(40)]
    assert cylinder_to_chain(C2, spec) == ZChain.of(Word({p: 1 for p in range(40)}))


def _functional_residual(group, f, witness, canonical, x):
    return (
        beta_eval(group, f, x)
        - (
            beta_eval(group, witness, x)
            - beta_eval(group, witness, shifted(x, 1))
        )
        - beta_eval(group, canonical, x)
    )


def test_coboundary_decompose_examples():
    # pure coboundary: h = 0
    c = ZChain.of(Word({0: 1, 2: 1}), 2)
    f = c - alpha(c)
    witness, canonical = coboundary_decompose(C2, f)
    assert canonical == ZChain()

    # constant 1 is canonical
    witness, canonical = coboundary_decompose(C2, ZChain.of(EMPTY_WORD))
    assert canonical == ZChain.of(EMPTY_WORD)
    assert witness == ZChain()

    # shifted single letter
    f = ZChain.of(Word({2: 1}))
    witness, canonical = coboundary_decompose(C2, f)
    assert canonical == ZChain.of(Word({0: 1}))
    assert witness != ZChain()
    for pattern in product(range(2), repeat=4):
        assert _functional_residual(C2, f, witness, canonical, pattern) == 0


@given(chains_st, points_st)
def test_coboundary_decompose_functional_identity(f, x):
    witness, canonical = coboundary_decompose(C3, f)
    assert all(w.is_canonical() for w in canonical)
    assert _functional_residual(C3, f, witness, canonical, x) == 0


@st.composite
def abelian_chain_st(draw):
    group = draw(st.sampled_from([C2, C3, KLEIN4]))
    letters = st.integers(1, group.num_irreps - 1)
    words = st.dictionaries(st.integers(-12, 12), letters, max_size=4).map(Word)
    return group, ZChain(draw(st.lists(st.tuples(words, st.integers(-5, 5)), max_size=6)))


@given(abelian_chain_st(), st.integers(0, 40))
def test_coboundary_decompose_is_the_three_pass_split(case, limit):
    # The definition: g = -alpha(m) for the chain witness m of decompose.
    group, f = case
    m, h = decompose(f)
    assert coboundary_decompose(group, f) == (-alpha(m), h)
    # Under any limit, both entry points refuse exactly the same chains.
    splits = (decompose, lambda c: coboundary_decompose(group, c))
    fits = sum(abs(w.min_support or 0) * len(w.entries) for w in f) <= limit
    with mock.patch.object(zchain, "MAX_WITNESS_TERMS", limit):
        for split in splits:
            if fits:
                split(f)
            else:
                with pytest.raises(BudgetError, match=f"more than {limit} witness entries"):
                    split(f)


def test_periodic_orbit_sum_examples():
    c = ZChain.of(Word({0: 1, 3: 1}), 5)
    coboundary = c - alpha(c)
    for pattern in ((1,), (0, 1), (1, 1, 0), (1, 0, 1, 1)):
        # chain coboundaries are function coboundaries: orbit sums vanish
        assert periodic_orbit_sum(C2, coboundary, pattern) == 0
    assert periodic_orbit_sum(C2, ZChain.of(EMPTY_WORD), (0, 1, 0)) == 3
    assert periodic_orbit_sum(C2, ZChain.of(Word({0: 1})), (1, 0)) == 1


def _orbit_sum_by_shifts(group, f, x):
    """The definition of the orbit sum: beta_eval at each shifted point."""
    return sum(beta_eval(group, f, shifted(x, k)) for k in range(len(x)))


@st.composite
def orbit_sum_cases(draw):
    group = draw(st.sampled_from((C2, C3, KLEIN4)))
    r = group.num_irreps
    word = st.builds(
        Word,
        st.dictionaries(st.integers(-40, 40), st.integers(1, r - 1), max_size=4),
    )
    f = ZChain(
        draw(
            st.lists(
                st.tuples(st.one_of(st.just(EMPTY_WORD), word), st.integers(-5, 5)),
                max_size=5,
            )
        )
    )
    # a repeated base pattern stands for a period that is not minimal
    base = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=6))
    return group, f, tuple(base * draw(st.integers(1, 3)))


@settings(max_examples=300)
@given(orbit_sum_cases())
@example((C2, ZChain(), (0, 1)))
@example((C3, ZChain.of(EMPTY_WORD, -4), (2, 0, 2, 0)))
@example((KLEIN4, ZChain.of(Word({-37: 3, 29: 1})), (3, 1) * 3))
def test_periodic_orbit_sum_matches_the_shifted_points(case):
    group, f, x = case
    assert periodic_orbit_sum(group, f, x) == _orbit_sum_by_shifts(group, f, x)


def _livsic_corpus():
    """Seeded livsic argument lists on C2, C3 and klein4, coboundaries and
    not, at the default horizon and at a pinned one."""
    rng = random.Random(29)
    for i in range(36):
        name, window = (("C2", 5), ("C3", 3), ("klein4", 3))[i % 3]
        group = builtin(name)
        lo = rng.randint(-12, 12)
        if i % 2:
            m = random_chain(rng, group, range(lo, lo + window - 1), max_terms=4)
            f = m - alpha(m)
        else:
            f = random_chain(rng, group, range(lo, lo + window), max_terms=4)
        argv = ["livsic", "--group", name, "--fn", json.dumps(jsonio.chain_to_json(f))]
        yield argv
        yield argv + ["--max-period", "4"]


def test_livsic_output_matches_the_orbit_sum_definition(capsys, monkeypatch):
    def outputs():
        result = []
        for argv in _livsic_corpus():
            code = main(argv)
            result.append((code, capsys.readouterr()))
        return result

    fast = outputs()
    assert any('"violating_orbit": null' in out for _, (out, _) in fast)
    assert any('"violating_orbit": [' in out for _, (out, _) in fast)

    def sum_by_shifts(f, x, rotations):
        # the definition, read off each shifted point
        return sum(
            coeff
            for k in range(rotations)
            for word, coeff in f.items()
            if all(shifted(x, k)[p % len(x)] == idx for p, idx in word.entries)
        )

    monkeypatch.setattr(fullshift, "_rotations_sum", sum_by_shifts)
    assert outputs() == fast


def _brute_force_orbits(r, max_period):
    """Every pattern of each period, kept when it is aperiodic (its
    rotations are distinct) and is its own least rotation."""
    for p in range(1, max_period + 1):
        for pattern in product(range(r), repeat=p):
            rotations = [pattern[s:] + pattern[:s] for s in range(p)]
            if pattern == min(rotations) and rotations.count(pattern) == 1:
                yield pattern


def test_orbit_representatives_dedupe():
    reps = list(orbit_representatives(C2, 4))
    # aperiodic binary necklaces by period: 2, 1, 2, 3
    assert [len(r) for r in reps].count(1) == 2
    assert [len(r) for r in reps].count(2) == 1
    assert [len(r) for r in reps].count(3) == 2
    assert [len(r) for r in reps].count(4) == 3
    assert len(set(reps)) == len(reps)
    for group, horizon in ((C2, 10), (C3, 6), (KLEIN4, 5)):
        got = list(orbit_representatives(group, horizon))
        assert got == list(_brute_force_orbits(group.num_irreps, horizon))


def test_default_period_bound():
    assert default_period_bound(ZChain()) == 1
    assert default_period_bound(ZChain.of(EMPTY_WORD)) == 1
    assert default_period_bound(ZChain.of(Word({0: 1}))) == 1
    assert default_period_bound(ZChain.of(Word({0: 1, 2: 1}))) == 5
    f = ZChain.of(Word({0: 1, 2: 1})) + ZChain.of(Word({1: 1})) + ZChain.of(EMPTY_WORD)
    assert default_period_bound(f) == 5
    assert default_period_bound(alpha(f, -7)) == 5
    # the window spans all words, not each word apart
    wide = ZChain.of(Word({-3: 1})) + ZChain.of(Word({2: 1}))
    assert default_period_bound(wide) == 11


# The two chains whose old horizons (max_support + 2) missed every
# nonvanishing orbit: one supported at negative positions, and one whose
# first nonzero orbit sum sits at period 6.
REPRODUCERS = (
    (
        ZChain.of(Word({-6: 1}))
        - 2 * ZChain.of(Word({-4: 1, -3: 1}))
        - ZChain.of(Word({-5: 1, -3: 1}))
        + 2 * ZChain.of(Word({-6: 1, -4: 1, -3: 1})),
        (0, 0, 1),
        1,
    ),
    (
        ZChain.of(Word({0: 1, 1: 1, 3: 1})) - ZChain.of(Word({0: 1, 2: 1, 3: 1})),
        (0, 0, 1, 0, 1, 1),
        -1,
    ),
)


@pytest.mark.parametrize("f, orbit, total", REPRODUCERS)
def test_livsic_horizon_reproducers(f, orbit, total):
    report = livsic_check(C2, f)
    assert report.max_period_checked == 7
    assert not report.is_coboundary_exact
    assert not report.periodic_sums_vanish
    assert report.violating_orbit == orbit
    assert report.violating_sum == total
    assert periodic_orbit_sum(C2, f, report.violating_orbit) == total


narrow_chains_st = st.builds(
    ZChain,
    st.lists(
        st.tuples(
            st.builds(
                Word,
                st.dictionaries(st.integers(-2, 1), st.integers(1, 2), max_size=3),
            ),
            st.integers(-3, 3),
        ),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(narrow_chains_st, st.integers(-9, 9))
def test_livsic_translation_invariant(f, k):
    # The orbit sums, the exact answer and the horizon all ignore where
    # the chain sits, so the whole report does.
    assert livsic_check(C3, alpha(f, k)) == livsic_check(C3, f)


def _livsic_by_scan(group, f, max_period=None):
    """The orbit test as an exhaustive scan, coboundary or not: the oracle
    for livsic_check, which skips the scan for proven coboundaries."""
    if max_period is None:
        max_period = default_period_bound(f)
    exact = not coinvariant_class(f)
    for x in orbit_representatives(group, max_period):
        total = periodic_orbit_sum(group, f, x)
        if total:
            return LivsicReport(exact, False, max_period, x, total)
    return LivsicReport(exact, True, max_period)


def test_livsic_coboundary_skips_the_scan(monkeypatch):
    def no_scan(group, max_period):
        raise AssertionError("a proven coboundary was scanned")

    monkeypatch.setattr(fullshift, "orbit_representatives", no_scan)
    m = ZChain.of(Word({0: 1, 2: 2}), 3) + ZChain.of(Word({1: 2}), -1)
    assert livsic_check(C3, m - alpha(m)) == LivsicReport(True, True, 7)
    assert livsic_check(C3, ZChain(), 5) == LivsicReport(True, True, 5)
    # the guards still refuse before the answer is known
    with pytest.raises(BudgetError):
        livsic_check(C2, ZChain(), 17)


def test_livsic_fuzz_negative_offsets():
    rng = random.Random(11)
    for i in range(800):
        group, window = (C2, rng.randint(1, 6)) if i % 2 else (C3, rng.randint(1, 4))
        lo = rng.randint(-8, 8)
        positions = range(lo, lo + window)
        u = rng.random()
        if u < 0.3:
            m = random_chain(rng, group, range(lo, lo + window - 1), max_terms=4)
            f = m - alpha(m)
        elif u < 0.6:
            # a word minus the same letters placed elsewhere in the window:
            # the short orbits often cancel, as in the second reproducer
            w = random_word(rng, group, positions)
            places = rng.sample(positions, len(w.entries))
            f = ZChain.of(w) - ZChain.of(Word(zip(places, (v for _, v in w.entries))))
        else:
            f = random_chain(rng, group, positions, max_terms=4)
        report = livsic_check(group, f)
        assert report == _livsic_by_scan(group, f), f
        assert report.max_period_checked <= 2 * window - 1
        assert report.consistent, (f, report)
        if not report.periodic_sums_vanish:
            assert report.violating_sum != 0
            total = periodic_orbit_sum(group, f, report.violating_orbit)
            assert total == report.violating_sum


def test_livsic_scan_size_guard():
    with pytest.raises(BudgetError):
        livsic_check(C2, ZChain(), 17)
    with pytest.raises(BudgetError):
        livsic_check(C2, ZChain(), 10**9)
    # a wide chain's default horizon is guarded the same way
    with pytest.raises(BudgetError):
        livsic_check(C2, ZChain.of(Word({0: 1, 9: 1})))
    assert sum(2**p for p in range(1, 17)) <= MAX_SCAN_PATTERNS < sum(
        2**p for p in range(1, 18)
    )


def test_livsic_work_guard():
    # patterns times terms: 32 766 C2 patterns to period 14 are admitted
    # for the zero chain and up to 128 terms, refused for 129
    patterns = sum(2**p for p in range(1, 15))
    assert patterns * 128 <= MAX_SCAN_EVALUATIONS < patterns * 129
    assert livsic_check(C2, ZChain(), 14).periodic_sums_vanish
    f = ZChain((Word({p: 1, p + 1: 1}), 1) for p in range(129))
    with pytest.raises(BudgetError):
        livsic_check(C2, f, 14)
    # the largest scan the benchmark makes: klein4 at horizon 7, 13 terms
    assert sum(4**p for p in range(1, 8)) * 13 <= MAX_SCAN_EVALUATIONS


def test_livsic_examples():
    f = ZChain.of(Word({1: 1})) - ZChain.of(Word({4: 1}))
    report = livsic_check(C2, f, 5)
    assert report.is_coboundary_exact and report.periodic_sums_vanish
    assert _livsic_by_scan(C2, f, 5) == report

    report = livsic_check(C2, ZChain.of(EMPTY_WORD), 1)
    assert not report.is_coboundary_exact
    assert not report.periodic_sums_vanish
    assert report.violating_orbit == (0,)
    assert report.violating_sum == 1

    report = livsic_check(C2, ZChain.of(Word({0: 1})), 1)
    assert report.violating_orbit == (1,)
    assert report.violating_sum == 1


@given(chains_st)
def test_livsic_forward_direction(m):
    # coboundaries sum to zero over every periodic orbit, for every period;
    # livsic_check skips the scan for them, so the oracle scans
    f = m - alpha(m)
    report = _livsic_by_scan(C3, f, max_period=5)
    assert report == LivsicReport(True, True, 5)
    assert livsic_check(C3, f, max_period=5) == report


def test_livsic_converse_fuzz_small():
    rng = random.Random(3)
    for _ in range(150):
        f = random_chain(rng, C3, range(0, 3), max_terms=4)
        report = livsic_check(C3, f)
        assert report.consistent, (f, report)
