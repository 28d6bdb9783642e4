"""Exact integer linear algebra by singleton peeling: determinant and rank.

Both take a matrix as sparse columns of (row, value) pairs and run one
elimination, singleton peeling (structured Gaussian elimination,
LaMacchia-Odlyzko 1990): it repeatedly expands along a column or row with a
single nonzero entry, which creates no fill-in and needs no division.  The
certificate matrices of ``colimitk`` are triangular by level, so they peel
away completely; ``colimitk._triangular_det`` proves that shape column by
column and reads the determinant from it with ``_parity``, so ``det`` sees
a certificate only when a column is not of that shape.  The other matrices
the package builds (the Z-freeness check of ``selfcheck``) peel away too.
A matrix that leaves a core with nonzero entries behind is refused with
``LampkError``: there is no dense fallback.
"""

from __future__ import annotations

from math import prod

from .errors import LampkError


def _parity(order) -> int:
    """Sign of a permutation of range(len(order)), given as the sequence
    of its images (a list, or a buffer of C integers)."""
    seen = bytearray(len(order))
    sign = 1
    for start in range(len(order)):
        if seen[start]:
            continue
        j, length = start, 0
        while not seen[j]:
            seen[j] = 1
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _peel(columns, nrows: int) -> tuple[list[int], list[int], list[int]]:
    """Peel singletons until none is left; return the pivots' rows, columns
    and values in peeling order.

    ``columns[j]`` lists the (row, value) pairs of column j, and pairs on
    the same row add up.  Peeling a singleton at (i, j) removes row i and
    column j; over Q it is a pivot whose row or column operations clear
    only entries that are removed with it, so each pivot adds one to the
    rank and its value to the determinant.  Lines left empty stay behind
    and are harmless; a nonzero entry left behind raises ``LampkError``.
    """
    cols: list[dict[int, int]] = []
    rows: list[set[int]] = [set() for _ in range(nrows)]
    for j, column in enumerate(columns):
        entries: dict[int, int] = {}
        for i, value in column:
            if not 0 <= i < nrows:
                raise ValueError(f"row {i} out of range for a matrix with {nrows} rows")
            entries[i] = entries.get(i, 0) + value
        entries = {i: v for i, v in entries.items() if v}
        for i in entries:
            rows[i].add(j)
        cols.append(entries)

    row_order: list[int] = []
    col_order: list[int] = []
    values: list[int] = []
    single_cols = [j for j, entries in enumerate(cols) if len(entries) == 1]
    single_rows = [i for i in range(nrows) if len(rows[i]) == 1]
    while single_cols or single_rows:
        if single_cols:
            j = single_cols.pop()
            if not cols[j]:  # peeled, or emptied, since it was queued
                continue
            [(i, value)] = cols[j].items()
            for k in rows[i] - {j}:
                del cols[k][i]
                if len(cols[k]) == 1:
                    single_cols.append(k)
        else:
            i = single_rows.pop()
            if not rows[i]:
                continue
            (j,) = rows[i]
            value = cols[j][i]
            for r in cols[j].keys() - {i}:
                rows[r].discard(j)
                if len(rows[r]) == 1:
                    single_rows.append(r)
        cols[j] = rows[i] = None
        row_order.append(i)
        col_order.append(j)
        values.append(value)

    core = [j for j, entries in enumerate(cols) if entries]
    if core:
        core_rows = sum(1 for entries in rows if entries)
        raise LampkError(
            f"singleton peeling leaves a {core_rows} x {len(core)} core with "
            "nonzero entries; this matrix needs elimination beyond peeling"
        )
    return row_order, col_order, values


def det(columns) -> int:
    """Exact determinant of a square integer matrix given as sparse columns.

    The matrix has as many rows as columns.  Ordering the rows and columns
    by peeling step makes it triangular, so the determinant is the sign of
    the two orderings times the pivot values; if a line is left over, it is
    empty and the determinant is 0.
    """
    n = len(columns)
    row_order, col_order, values = _peel(columns, n)
    if len(values) < n:
        return 0
    return _parity(row_order) * _parity(col_order) * prod(values)


def rank(columns, nrows: int) -> int:
    """Exact rank of an integer matrix with ``nrows`` rows given as sparse
    columns: the number of pivots peeled."""
    return len(_peel(columns, nrows)[2])
