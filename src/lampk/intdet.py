"""Exact integer linear algebra: determinant and rank.

``det`` takes a square matrix as sparse columns and computes its exact
determinant in two stages.  Singleton peeling (structured Gaussian
elimination, LaMacchia-Odlyzko 1990) repeatedly expands along a column or
row with a single nonzero entry; the certificate matrices of ``colimitk``
peel away completely.  Whatever core is left is eliminated densely by
fraction-free Bareiss (1968), so the result is exact for every integer
matrix, whatever its determinant.  ``bareiss_det`` is also the dense
oracle the tests compare against; rank is used at desk scale only.
"""

from __future__ import annotations


def bareiss_det(rows) -> int:
    """Exact determinant of a square integer matrix (list of rows).

    All divisions are exact by the Bareiss identity (every intermediate
    entry is a minor of the input), so the result is an exact integer.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pk = m[k]
        akk = pk[k]
        for i in range(k + 1, n):
            ri = m[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * pk[j]) // prev
            ri[k] = 0
        prev = akk
    return sign * m[n - 1][n - 1]


def _parity(order: list[int]) -> int:
    """Sign of a permutation of range(len(order))."""
    seen = [False] * len(order)
    sign = 1
    for start in range(len(order)):
        if seen[start]:
            continue
        j, length = start, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det(columns) -> int:
    """Exact determinant of a square integer matrix given as sparse columns.

    ``columns[j]`` lists the (row, value) pairs of column j; the matrix has
    as many rows as columns, and pairs on the same row add up.  Peeling a
    singleton at (i, j) contributes its value and removes row i and
    column j.  Ordering the rows and columns by peeling step, then the core
    in index order, makes the matrix block triangular with the core last,
    so the determinant is the sign of the two orderings times the peeled
    values times the core's determinant.
    """
    n = len(columns)
    cols: list[dict[int, int]] = []
    rows: list[set[int]] = [set() for _ in range(n)]
    for j, column in enumerate(columns):
        entries: dict[int, int] = {}
        for i, value in column:
            if not 0 <= i < n:
                raise ValueError(f"row {i} out of range for a square matrix of order {n}")
            entries[i] = entries.get(i, 0) + value
        entries = {i: v for i, v in entries.items() if v}
        for i in entries:
            rows[i].add(j)
        cols.append(entries)
    if not all(cols) or not all(rows):
        return 0

    row_order: list[int] = []
    col_order: list[int] = []
    product = 1
    single_cols = [j for j in range(n) if len(cols[j]) == 1]
    single_rows = [i for i in range(n) if len(rows[i]) == 1]
    while single_cols or single_rows:
        if single_cols:
            j = single_cols.pop()
            if cols[j] is None:  # peeled since it was queued
                continue
            [(i, value)] = cols[j].items()
            for k in rows[i] - {j}:
                del cols[k][i]
                if not cols[k]:
                    return 0
                if len(cols[k]) == 1:
                    single_cols.append(k)
        else:
            i = single_rows.pop()
            if rows[i] is None:
                continue
            (j,) = rows[i]
            value = cols[j][i]
            for r in cols[j].keys() - {i}:
                rows[r].discard(j)
                if not rows[r]:
                    return 0
                if len(rows[r]) == 1:
                    single_rows.append(r)
        cols[j] = rows[i] = None
        row_order.append(i)
        col_order.append(j)
        product *= value

    core_rows = [i for i in range(n) if rows[i] is not None]
    core_cols = [j for j in range(n) if cols[j] is not None]
    core = [[cols[j].get(i, 0) for j in core_cols] for i in core_rows]
    sign = _parity(row_order + core_rows) * _parity(col_order + core_cols)
    return sign * product * bareiss_det(core)


def rank(rows) -> int:
    """Rank of an integer matrix, computed exactly.

    Fraction-free elimination with the Bareiss division, so intermediate
    entries stay minors of the input instead of growing exponentially.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rk = 0
    prev = 1
    for col in range(ncols):
        pivot_row = next((i for i in range(rk, nrows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rk], m[pivot_row] = m[pivot_row], m[rk]
        pivot = m[rk][col]
        top = m[rk]
        for i in range(rk + 1, nrows):
            a = m[i][col]
            row = m[i]
            m[i] = [(row[j] * pivot - a * top[j]) // prev for j in range(ncols)]
        prev = pivot
        rk += 1
        if rk == nrows:
            break
    return rk
