import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lampk.cli import main
from lampk.errors import MAX_QUOTED_CHARS, BudgetError, LampkError, check_budget, exact_int, quoted


def test_plain_count():
    check_budget("a job", 10, 10, "units")
    with pytest.raises(BudgetError, match="^a job needs more than 10 units$"):
        check_budget("a job", 11, 10, "units")


@given(
    base=st.integers(2, 10**6),
    steps=st.integers(0, 300),
    limit=st.integers(1, 2**64),
    summed=st.booleans(),
)
def test_stepped_count_decides_as_the_full_count(base, steps, limit, summed):
    def work(k):
        calls.append(k)
        return sum(base**p for p in range(1, k + 1)) if summed else base**k

    calls = []
    over = work(steps) > limit
    calls = []
    try:
        check_budget("a job", work, limit, "units", steps=steps)
        refused = False
    except BudgetError as exc:
        refused = True
        assert str(exc) == f"a job needs more than {limit} units"
    assert refused == over
    # a handful of evaluations, none past twice the step where 2^(k-1)
    # alone exceeds the limit
    assert len(calls) <= limit.bit_length().bit_length() + 3
    assert max(calls) <= max(1, min(steps, 2 * (limit.bit_length() + 1)))


def test_stated_limit_replaces_the_compared_one():
    with pytest.raises(BudgetError, match="more than 4300 digits$"):
        check_budget("2^14285", lambda k: 2**k, 10**4300 - 1, "digits",
                     steps=14285, stated=4300)
    check_budget("2^14284", lambda k: 2**k, 10**4300 - 1, "digits",
                 steps=14284, stated=4300)


def test_huge_step_counts_build_no_huge_integer():
    sizes = []

    def work(k):
        sizes.append(k)
        return 7**k

    with pytest.raises(BudgetError):
        check_budget("a job", work, 2**16, "units", steps=10**100)
    assert max(sizes) <= 32


@pytest.mark.parametrize(
    "value, expected",
    [(3, 3), (-(2**100), -(2**100)), (3.0, 3), (1e20, 10**20), ("-7", -7), (Fraction(6, 2), 3)],
)
def test_exact_int_reads_integers(value, expected):
    n = exact_int(value, "x")
    assert n == expected and type(n) is int


def test_short_values_are_quoted_whole():
    for value, text in (("a", "'a'"), (True, "True"), ("1.5", "'1.5'"), (1.5, "1.5")):
        assert quoted(value) == text
    key = "k" * MAX_QUOTED_CHARS
    assert quoted(key, str) == key
    assert quoted(key + "k", str) == f"{key}... (cut from {MAX_QUOTED_CHARS + 1} characters)"


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--group", "C2", "--word", '{"%s": 1}' % ("x" * 5000)],
        ["fingerprint", "--group", "q" * 5000],
        ["cylinder-expand", "--group", "C2", "--spec", '{"%s": 0, "%s": 1}' % (("k" * 5000,) * 2)],
    ],
)
def test_long_values_are_not_echoed_whole(capsys, argv):
    # a 5 000-character value as a word position, a group name and a
    # repeated key: the message quotes its start and states its length
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert len(err.encode()) < 300
    assert "(cut from 5002 characters)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fingerprint", "--group", '{"name": "%s", "order": 3, "dims": [1, 1]}' % ("q" * 5000)],
        ["cylinder-expand", "--group", '{"name": "%s", "order": 2, "dims": [1, 1]}' % ("q" * 5000),
         "--spec", '{"0": 5}'],
    ],
)
def test_long_group_names_are_not_echoed_whole(capsys, argv):
    # a group's checks and the checks against a group quote its name
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert len(err.encode()) < 300
    assert "characters)" in err


def test_numbers_past_the_digit_limit_are_quoted_by_type():
    limit = sys.get_int_max_str_digits()
    assert quoted(10**5000) == f"a value of type int past the {limit}-digit limit"
    with pytest.raises(LampkError, match="^coeff must be an integer, got a value of type Fraction past the"):
        exact_int(Fraction(10**5000, 3), "coeff")


@pytest.mark.parametrize(
    "value",
    [True, False, 2.5, float("nan"), float("inf"), Fraction(5, 2), "1.5", "a", b"3", None, [1]],
)
def test_exact_int_refuses_what_int_would_truncate(value):
    with pytest.raises(LampkError, match="^x must be an integer, got "):
        exact_int(value, "x")


def _gated_calls():
    """Each public entry that takes an integer, as a function of that one
    integer, with every other argument fixed and valid."""
    from lampk import (
        Word, ZChain, alpha, beta_eval, builtin, claim_check, cylinder_to_chain,
        enumerate_canonical, f_apply, livsic_check, periodic_orbit_sum,
        projection_chain, pv_check, shift, trace_image_level,
    )
    from lampk.shiftwords import canonical_count

    C2, S3 = builtin("C2"), builtin("S3")
    chain = ZChain.of(Word({0: 1, 2: 1}))
    return {
        "alpha": lambda v: alpha(chain, v),
        "shift": lambda v: shift(Word({0: 1}), v),
        "claim_check": lambda v: claim_check(S3, v),
        "enumerate_canonical": lambda v: enumerate_canonical(S3, v),
        "canonical_count": lambda v: canonical_count(S3, v),
        "livsic_check": lambda v: livsic_check(C2, chain, max_period=v),
        "pv_check samples": lambda v: pv_check(S3, v, 2, 1),
        "pv_check window": lambda v: pv_check(S3, 3, v, 1),
        "pv_check seed": lambda v: pv_check(S3, 3, 2, v),
        "trace_image_level": lambda v: trace_image_level(S3, v),
        "projection_chain position": lambda v: projection_chain(S3, [(v, 0), (3, 2)]),
        "projection_chain value": lambda v: projection_chain(S3, [(0, v), (3, 0)]),
        "cylinder_to_chain value": lambda v: cylinder_to_chain(C2, [(0, v)]),
        "f_apply": lambda v: f_apply(S3, {(1,): 1}, v),
        "beta_eval": lambda v: beta_eval(C2, chain, (v, 0)),
        "periodic_orbit_sum": lambda v: periodic_orbit_sum(C2, chain, (v, 1, 0)),
    }


def _outcome(call, value):
    try:
        return call(value)
    except LampkError as exc:
        return type(exc), str(exc)


def _off_group_calls():
    """Each public entry given a value that is not over its group: a letter
    or a pattern value that indexes no irrep of C2, or an f_apply vector
    whose coefficient is not an integer or whose level tuple indexes no
    irrep of S3."""
    from lampk import (
        Word, ZChain, beta_eval, builtin, coboundary_decompose, f_apply,
        livsic_check, periodic_orbit_sum,
    )

    C2, S3 = builtin("C2"), builtin("S3")
    one, seven = ZChain.of(Word({0: 1})), ZChain.of(Word({0: 7}))
    return {
        "livsic_check": lambda: livsic_check(C2, seven),
        "coboundary_decompose": lambda: coboundary_decompose(C2, seven),
        "beta_eval": lambda: beta_eval(C2, one, (7,)),
        "periodic_orbit_sum": lambda: periodic_orbit_sum(C2, one, (7,)),
        "beta_eval letter 7": lambda: beta_eval(C2, seven, (0,)),
        "periodic_orbit_sum letter 7": lambda: periodic_orbit_sum(C2, seven, (1, 0)),
        "f_apply coefficient 2.5": lambda: f_apply(S3, {(0,): 2.5}, 3),
        "f_apply index 7": lambda: f_apply(S3, {(7,): 1}, 3),
        "f_apply index -1": lambda: f_apply(S3, {(-1,): 1}, 3),
        "f_apply index 0.5": lambda: f_apply(S3, {(0.5,): 1}, 3),
        "f_apply index True": lambda: f_apply(S3, {(True,): 1}, 3),
    }


@pytest.mark.parametrize("name", list(_off_group_calls()))
def test_values_off_their_group_are_refused(name):
    with pytest.raises(LampkError):
        _off_group_calls()[name]()


def test_f_apply_reads_its_coefficients_as_integers():
    from lampk import builtin, f_apply

    S3 = builtin("S3")
    image = f_apply(S3, {(0,): 2.0, (1, 2): Fraction(-6, 2)}, 3)
    assert image == f_apply(S3, {(0,): 2, (1, 2): -3}, 3)
    assert all(type(c) is int for c in image.values())


@pytest.mark.parametrize("name", list(_gated_calls()))
def test_public_integer_arguments_are_exact_or_refused(name):
    call = _gated_calls()[name]
    for value in (2.5, True):
        with pytest.raises(LampkError, match=" must be an integer, got "):
            call(value)
    # a string of digits reads as its integer, as a JSON key does
    assert _outcome(call, "1") == _outcome(call, 1)
