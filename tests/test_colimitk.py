from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lampk import colimitk, intdet
from lampk.colimitk import (
    MAX_CERTIFICATE_COLUMNS,
    claim_check,
    claim_matrix,
    complement_tuples,
    f_apply,
    level_tuples,
    total_size,
    tuple_dim,
    tuple_row,
)
from lampk.errors import BudgetError, GroupDataError, LampkError, TruncationError
from lampk.grouprep import GroupRepData, builtin


def dense_rows(columns):
    """The sparse certificate columns as a dense list of rows."""
    n = len(columns)
    rows = [[0] * n for _ in range(n)]
    for j, column in enumerate(columns):
        for i, value in column:
            rows[i][j] += value
    return rows


def test_tuple_dim():
    s3 = builtin("S3")
    assert tuple_dim(s3, (0,)) == 1
    assert tuple_dim(s3, (2, 2)) == 4
    assert tuple_dim(s3, (2, 1, 0)) == 2
    # the dimension ratio along dropping the last coordinate is that
    # coordinate's dimension
    for t in product(range(3), repeat=3):
        assert tuple_dim(s3, t) == tuple_dim(s3, t[:-1]) * s3.dims[t[-1]]


def test_f_apply_c2_example():
    c2 = builtin("C2")
    out = f_apply(c2, {(0,): 1}, levels=2)
    assert out == {(0,): 1, (0, 0): -1, (0, 1): -1}


def test_f_apply_s3_example():
    s3 = builtin("S3")
    out = f_apply(s3, {(2,): 1}, levels=2)
    assert out == {(2,): 1, (2, 0): -1, (2, 1): -1, (2, 2): -2}
    # induced dimension bookkeeping: 2 * 6 = 2 + 2 + 8
    induced = {t: -c for t, c in out.items() if t != (2,)}
    assert sum(c * tuple_dim(s3, t) for t, c in induced.items()) == 2 * 6


def test_f_apply_linear_and_guarded():
    c2 = builtin("C2")
    assert f_apply(c2, {}, levels=3) == {}
    a = {(0,): 2}
    b = {(1, 1): -3}
    fa, fb = f_apply(c2, a, levels=3), f_apply(c2, b, levels=3)
    total = {t: fa.get(t, 0) + fb.get(t, 0) for t in fa.keys() | fb.keys()}
    assert f_apply(c2, a | b, levels=3) == total
    # an input term cancelling an image term leaves no zero coefficient
    assert f_apply(c2, {(0,): 1, (0, 0): 1}, levels=3) == {
        (0,): 1, (0, 1): -1, (0, 0, 0): -1, (0, 0, 1): -1,
    }
    assert f_apply(c2, {(0, 0, 0): 0, (1,): 1}, levels=3) == f_apply(c2, {(1,): 1}, levels=3)
    with pytest.raises(TruncationError, match="supported at level 3"):
        f_apply(c2, {(0, 0, 0): 1}, levels=3)
    with pytest.raises(TruncationError, match="supported at level 4"):
        f_apply(c2, {(1,): 1, (0, 1, 0, 1): -2}, levels=3)
    for key in ((), 0, "0", None):
        with pytest.raises(LampkError, match="level keys must be nonempty tuples"):
            f_apply(c2, {key: 1}, levels=3)
    with pytest.raises(LampkError, match="levels must be >= 2"):
        f_apply(c2, {(0,): 1}, levels=1)


def test_f_apply_matches_pointwise_formula():
    # coefficient at t (level >= 2) is phi(t) - phi(r(t)) * dims[t[-1]]
    s3 = builtin("S3")
    phi = {(1,): 2, (2, 0): -1, (2, 2): 5}
    out = f_apply(s3, phi, levels=3)
    for n in (1, 2, 3):
        for t in level_tuples(s3, n):
            expected = phi.get(t, 0) if n <= 2 else 0
            if n >= 2:
                expected -= phi.get(t[:-1], 0) * s3.dims[t[-1]]
            assert out.get(t, 0) == expected, t
    assert 0 not in out.values()


def test_f_apply_agrees_with_claim_matrix_columns():
    for name, levels in (("C2", 3), ("S3", 2)):
        g = builtin(name)
        matrix = dense_rows(claim_matrix(g, levels))
        rows = [t for n in range(1, levels + 1) for t in level_tuples(g, n)]
        col = 0
        for n in range(1, levels):
            for t in level_tuples(g, n):
                image = f_apply(g, {t: 1}, levels)
                for i, row_tuple in enumerate(rows):
                    assert matrix[i][col] == image.get(row_tuple, 0)
                col += 1


def test_injectivity_on_embedded_rows_exhaustive():
    # Any nonzero input at levels <= N-1 has a nonzero image coordinate on
    # some tuple ending in 0; exhaustively over {-1, 0, 1} inputs, r = 2.
    c2 = builtin("C2")
    for levels in (2, 3):
        domain = [t for n in range(1, levels) for t in level_tuples(c2, n)]
        for coeffs in product((-1, 0, 1), repeat=len(domain)):
            if not any(coeffs):
                continue
            phi = dict(zip(domain, coeffs))
            image = f_apply(c2, phi, levels)
            embedded = [
                image.get(t, 0)
                for n in range(2, levels + 1)
                for t in level_tuples(c2, n)
                if t[-1] == 0
            ]
            assert any(embedded), phi


def test_claim_sizes():
    c2 = builtin("C2")
    assert total_size(c2, 2) == 6
    assert total_size(c2, 3) == 14
    assert total_size(builtin("S3"), 2) == 12
    # complement basis: all of level 1, then nontrivial last coordinate
    assert list(complement_tuples(c2, 1)) == [(0,), (1,)]
    assert list(complement_tuples(c2, 2)) == [(0, 1), (1, 1)]


@pytest.mark.parametrize(
    "name,levels",
    [("C2", 2), ("C2", 3), ("C2", 4), ("C3", 2), ("C3", 3), ("S3", 2), ("S3", 3)],
)
def test_claim_certificate_unimodular(name, levels):
    cert = claim_check(builtin(name), levels)
    assert cert.size == total_size(builtin(name), levels)
    assert cert.det in (1, -1)
    assert cert.holds


def _inline_group(dims):
    try:
        return GroupRepData(name="inline", order=sum(d * d for d in dims), dims=dims)
    except GroupDataError:
        return None


# The valid inline dims vectors of 2 to 6 irreps with entries up to 4, each
# with a truncation of 2 to 4 levels: at most 1 554 columns, within the
# column limit.  They are listed, not filtered from random vectors: about
# 1 in 9 of those is a group's (each dim divides the order), too few for
# a filter.
_INLINE_GROUPS = [
    group
    for n in range(1, 6)
    for tail in product(range(1, 5), repeat=n)
    if (group := _inline_group((1, *tail)))
]
certificate_inputs = st.tuples(st.sampled_from(_INLINE_GROUPS), st.integers(2, 4))


@given(certificate_inputs)
def test_certificate_peels_to_a_unit(case):
    # the matrix is triangular (the proof is in colimitk._triangular_det):
    # peeling leaves no core, so det never raises, and the determinant is
    # +-1 and the one claim_check reads from the shape
    group, levels = case
    determinant = intdet.det(claim_matrix(group, levels))
    assert determinant in (1, -1)
    assert claim_check(group, levels).det == determinant


# the catalog's non-cyclic groups, and cyclic groups of 2, 3 and 5 irreps
CATALOG = ["C2", "C3", "C5", "klein4", "S3", "D4", "Q8", "A4", "S4", "A5"]


def catalog_truncations(max_columns):
    """(group, N) for every catalog group at every N from 2 while the
    certificate has at most ``max_columns`` columns."""
    for name in CATALOG:
        group, levels = builtin(name), 2
        while total_size(group, levels) <= max_columns:
            yield group, levels
            levels += 1


def test_streamed_determinant_is_the_matrix_determinant():
    cases = list(catalog_truncations(5_000))
    assert len(cases) == 50
    for group, levels in cases:
        assert claim_check(group, levels).det == intdet.det(claim_matrix(group, levels)), (
            group.name, levels)


def test_tuple_row_is_the_certificate_row_order():
    for group, levels in (builtin("C2"), 4), (builtin("S3"), 3), (builtin("A5"), 2):
        rows = [t for n in range(1, levels + 1) for t in level_tuples(group, n)]
        assert [tuple_row(group, t) for t in rows] == list(range(len(rows)))


def test_catalog_certificates_build_no_matrix(monkeypatch):
    def spy(*args):
        raise AssertionError("the certificate fell back to the whole matrix")

    monkeypatch.setattr(colimitk, "claim_matrix", spy)
    monkeypatch.setattr(intdet, "det", spy)
    for group, levels in catalog_truncations(20_000):
        assert claim_check(group, levels).holds


def test_a_column_off_the_proven_shape_takes_the_fallback(monkeypatch):
    # weight 1 in place of d_sigma: the matrix is still unimodular, but an
    # S3 column, with d_2 = 2, is not of the shape the shortcut proves
    def unit_weights(group, vec, levels):
        out = {}
        for t, c in vec.items():
            out[t] = out.get(t, 0) + c
            for sigma in range(group.num_irreps):
                out[(*t, sigma)] = out.get((*t, sigma), 0) - c
        return {t: c for t, c in out.items() if c}

    s3 = builtin("S3")
    monkeypatch.setattr(colimitk, "f_apply", unit_weights)
    assert colimitk._triangular_det(s3, 3) is None
    matrices = []

    def built(group, levels):
        matrices.append(claim_matrix(group, levels))
        return matrices[-1]

    monkeypatch.setattr(colimitk, "claim_matrix", built)
    expected = intdet.det(claim_matrix(s3, 3))
    assert expected in (1, -1)
    assert claim_check(s3, 3).det == expected
    assert len(matrices) == 1 and intdet.det(matrices[0]) == expected


def test_claim_certificate_is_a_named_tuple():
    cert = claim_check(builtin("C2"), 3)
    group, levels, size, det, elapsed_ms = cert
    assert cert == ("C2", 3, 14, det, elapsed_ms) and cert.holds


def test_claim_budget_guard():
    assert total_size(builtin("C2"), 17) == 262_142 > MAX_CERTIFICATE_COLUMNS
    with pytest.raises(BudgetError):
        claim_check(builtin("C2"), 17)


def test_claim_rejects_shallow_truncation():
    from lampk.errors import LampkError

    with pytest.raises(LampkError):
        claim_check(builtin("C2"), 1)


def test_claim_determinant_against_fraction_oracle():
    # Recompute the certificate determinants by plain Gaussian elimination
    # over Fraction, independent of the fraction-free kernel.
    from fractions import Fraction

    def det_fractions(rows):
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
        return int(det)

    for name, levels in (("C2", 2), ("C2", 3), ("S3", 2)):
        g = builtin(name)
        matrix = dense_rows(claim_matrix(g, levels))
        assert claim_check(g, levels).det == det_fractions(matrix)
