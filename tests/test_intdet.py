import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lampk import intdet
from lampk.errors import LampkError

# Mostly zeros, so that random matrices mix singletons with cores.
ENTRIES = (0, 0, 0, 0, 1, -1, 2, -3, 7)

sparse_square_matrices = st.integers(0, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)

sparse_matrices = st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
    lambda shape: st.lists(
        st.lists(st.sampled_from(ENTRIES), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@st.composite
def scrambled_triangular_matrices(draw):
    """A lower triangular matrix with a nonzero diagonal, its rows and
    columns permuted: peeling must always finish it."""
    n = draw(st.integers(0, 8))
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = draw(st.sampled_from((-2, -1, 1, 3)))
        for j in range(k):
            rows[k][j] = draw(st.sampled_from((0, 0, 1, -4)))
    perm_r = draw(st.permutations(range(n)))
    perm_c = draw(st.permutations(range(n)))
    return [[rows[perm_r[i]][perm_c[j]] for j in range(n)] for i in range(n)]


def columns_of(rows):
    """Sparse (row, value) columns of a dense matrix."""
    ncols = len(rows[0]) if rows else 0
    return [[(i, row[j]) for i, row in enumerate(rows) if row[j]] for j in range(ncols)]


def _fraction_echelon(rows):
    """Gaussian elimination over Fraction: (rank, determinant if square)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rk, det = 0, Fraction(1)
    for col in range(ncols):
        pivot = next((i for i in range(rk, nrows) if m[i][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rk:
            m[rk], m[pivot] = m[pivot], m[rk]
            det = -det
        det *= m[rk][col]
        for i in range(rk + 1, nrows):
            factor = m[i][col] / m[rk][col]
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk, det


def det_fraction_oracle(rows):
    """Determinant by Gaussian elimination over Fraction."""
    det = _fraction_echelon(rows)[1]
    assert det.denominator == 1
    return det.numerator


def rank_fraction_oracle(rows):
    """Rank by Gaussian elimination over Fraction."""
    return _fraction_echelon(rows)[0]


def test_known_values():
    for rows, expected in (
        ([], 1),
        ([[7]], 7),
        ([[1, 0], [0, 1]], 1),
        ([[2, 3], [0, 4]], 8),
        ([[1, 2], [0, 0]], 0),
        ([[0, 1], [1, 0]], -1),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),  # a 3-cycle is even
        ([[0, 0, 5], [1, 0, 0], [3, 2, 1]], 10),
    ):
        assert intdet.det(columns_of(rows)) == expected
        assert det_fraction_oracle(rows) == expected


def test_pairs_on_one_row_add_up():
    assert intdet.det([[(0, 2), (0, 1)], [(1, 3), (1, -3)]]) == 0
    assert intdet.det([[(0, 2), (0, 1)], [(1, 3)]]) == 9
    assert intdet.rank([[(0, 2), (0, -2)], [(1, 3)]], 2) == 1


def test_rejects_non_square():
    # two columns cannot have a third row
    with pytest.raises(ValueError):
        intdet.det([[(0, 1), (2, 1)], [(1, 1)]])
    with pytest.raises(ValueError):
        intdet.det([[(-1, 1)]])
    with pytest.raises(ValueError):
        intdet.rank([[(3, 1)]], 3)


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 3], [3, 2]],
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        [[1, 2], [2, 4]],  # singular, but nothing to peel
        # one singleton in front of a core
        [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [4, 0, 0, -3]],
    ],
)
def test_a_core_is_refused(rows):
    with pytest.raises(LampkError, match="core"):
        intdet.det(columns_of(rows))
    with pytest.raises(LampkError, match="core"):
        intdet.rank(columns_of(rows), len(rows))


@given(sparse_square_matrices)
@example([[0, 0, 5], [1, 0, 0], [3, 2, 1]])  # peels completely, det 10
@example([[1, 1], [0, 0]])  # a queued singleton column empties
def test_sparse_det_matches_fraction_oracle(m):
    try:
        value = intdet.det(columns_of(m))
    except LampkError:
        return
    assert value == det_fraction_oracle(m)


@given(scrambled_triangular_matrices())
def test_scrambled_triangular_matrices_peel_exactly(m):
    assert intdet.det(columns_of(m)) == det_fraction_oracle(m)
    assert intdet.rank(columns_of(m), len(m)) == len(m)


def test_input_not_mutated():
    m = [[2, 3], [0, 4]]
    columns = columns_of(m)
    column_snapshot = [col[:] for col in columns]
    intdet.det(columns)
    intdet.rank(columns, 2)
    assert columns == column_snapshot


def test_big_entries_exact():
    # a scrambled triangular matrix: the determinant is the product of
    # 12-digit pivots, and the off-diagonal entries are as large
    rng = random.Random(0)
    n = 6
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            rows[k][j] = rng.choice((-1, 1)) * rng.randint(1, 10**12)
    perm_r = rng.sample(range(n), n)
    perm_c = rng.sample(range(n), n)
    m = [[rows[perm_r[i]][perm_c[j]] for j in range(n)] for i in range(n)]
    assert abs(det_fraction_oracle(m)) > 10**60
    assert intdet.det(columns_of(m)) == det_fraction_oracle(m)


def test_rank():
    for rows, nrows, expected in (
        ([[1, 0], [0, 1]], 2, 2),
        ([[0, 0], [0, 0]], 2, 0),
        ([[1, 1], [0, 0]], 2, 1),  # a queued singleton column empties
        ([[1, 0], [1, 0]], 2, 1),  # a queued singleton row empties
        ([[2, 0, 1], [0, 3, 1]], 2, 2),
        ([[1, 2], [0, 3], [0, 0]], 3, 2),
    ):
        assert intdet.rank(columns_of(rows), nrows) == expected
        assert rank_fraction_oracle(rows) == expected
    assert intdet.rank([], 0) == 0
    assert intdet.rank([], 4) == 0
    assert intdet.rank([[], []], 0) == 0


@given(sparse_matrices)
@example([[1, 1], [0, 0]])
@example([[1, 0], [1, 0]])
def test_rank_matches_fraction_oracle_or_refuses(m):
    try:
        value = intdet.rank(columns_of(m), len(m))
    except LampkError:
        return
    assert value == rank_fraction_oracle(m)


@given(sparse_square_matrices)
def test_rank_full_iff_det_nonzero(m):
    try:
        rk = intdet.rank(columns_of(m), len(m))
    except LampkError:
        with pytest.raises(LampkError):
            intdet.det(columns_of(m))
        return
    assert (rk == len(m)) == (intdet.det(columns_of(m)) != 0)
