import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lampk import intdet

square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)

# Mostly zeros, so that random matrices mix singletons with dense cores.
sparse_square_matrices = st.integers(0, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 7)), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def columns_of(rows):
    """Sparse (row, value) columns of a dense square matrix."""
    n = len(rows)
    return [[(i, rows[i][j]) for i in range(n) if rows[i][j]] for j in range(n)]


def det_fraction_oracle(rows):
    """Gaussian elimination over Fraction, independent of Bareiss."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] * inv
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    assert det.denominator == 1
    return det.numerator


def test_known_values():
    for rows, expected in (
        ([], 1),
        ([[7]], 7),
        ([[1, 0], [0, 1]], 1),
        ([[2, 3], [1, 4]], 5),
        ([[1, 2], [2, 4]], 0),
        ([[0, 1], [1, 0]], -1),
        # needs a row swap mid-elimination
        ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], -1),
    ):
        assert intdet.det(columns_of(rows)) == expected
        assert intdet.bareiss_det(rows) == expected


def test_pairs_on_one_row_add_up():
    assert intdet.det([[(0, 2), (0, 1)], [(1, 3), (1, -3)]]) == 0
    assert intdet.det([[(0, 2), (0, 1)], [(1, 3)]]) == 9


def test_rejects_non_square():
    with pytest.raises(ValueError):
        intdet.bareiss_det([[1, 2, 3], [4, 5, 6]])
    # two columns cannot have a third row
    with pytest.raises(ValueError):
        intdet.det([[(0, 1), (2, 1)], [(1, 1)]])
    with pytest.raises(ValueError):
        intdet.det([[(-1, 1)]])


@given(square_matrices)
def test_pure_matches_fraction_oracle(m):
    assert intdet.bareiss_det(m) == det_fraction_oracle(m)


@given(sparse_square_matrices)
@example([[1, 2], [2, 4]])  # singular, nothing to peel
@example([[0, 0, 5], [1, 0, 0], [3, 2, 1]])  # peels completely, det 10
@example([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [4, 0, 0, -3]])
# no singletons anywhere: the whole matrix is the core, det -6
@example([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
def test_sparse_det_matches_fraction_oracle(m):
    assert intdet.det(columns_of(m)) == det_fraction_oracle(m)


def test_peeling_around_a_dense_core():
    # Core [[2, 1], [1, 3]] (det 5) behind singletons, rows and columns
    # scrambled, so both the peeled pivots and the core sign matter.
    rng = random.Random(3)
    for _ in range(200):
        n = 6
        rows = [[0] * n for _ in range(n)]
        rows[0][0], rows[0][1], rows[1][0], rows[1][1] = 2, 1, 1, 3
        for k in range(2, n):
            rows[k][k] = rng.choice((-2, -1, 1, 3))
            for j in range(k):  # lower triangle: singleton columns peel
                rows[k][j] = rng.choice((0, 0, 1, -4))
        perm_r = rng.sample(range(n), n)
        perm_c = rng.sample(range(n), n)
        scrambled = [[rows[perm_r[i]][perm_c[j]] for j in range(n)] for i in range(n)]
        assert intdet.det(columns_of(scrambled)) == det_fraction_oracle(scrambled)


def test_input_not_mutated():
    m = [[2, 3], [1, 4]]
    snapshot = [row[:] for row in m]
    columns = columns_of(m)
    column_snapshot = [col[:] for col in columns]
    intdet.det(columns)
    intdet.bareiss_det(m)
    assert m == snapshot
    assert columns == column_snapshot


def test_big_entries_exact():
    rng = random.Random(0)
    m = [[rng.randint(-(10**12), 10**12) for _ in range(6)] for _ in range(6)]
    assert intdet.bareiss_det(m) == det_fraction_oracle(m)
    assert intdet.det(columns_of(m)) == det_fraction_oracle(m)


def test_rank():
    assert intdet.rank([[1, 0], [0, 1]]) == 2
    assert intdet.rank([[1, 2], [2, 4]]) == 1
    assert intdet.rank([[0, 0], [0, 0]]) == 0
    assert intdet.rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert intdet.rank([[2, 0, 1], [0, 3, 1]]) == 2
    assert intdet.rank([]) == 0


@given(square_matrices)
def test_rank_full_iff_det_nonzero(m):
    assert (intdet.rank(m) == len(m)) == (intdet.bareiss_det(m) != 0)
