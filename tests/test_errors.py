from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lampk.errors import BudgetError, LampkError, check_budget, exact_int


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


@pytest.mark.parametrize(
    "value",
    [True, False, 2.5, float("nan"), float("inf"), Fraction(5, 2), "1.5", "a", b"3", None, [1]],
)
def test_exact_int_refuses_what_int_would_truncate(value):
    with pytest.raises(LampkError, match="^x must be an integer, got "):
        exact_int(value, "x")
