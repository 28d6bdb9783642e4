"""Levelwise bookkeeping for the inductive-limit K-group computation.

Level n carries the dual of the n-fold product group, indexed by length-n
tuples of irrep indices (one-sided convention: passing to level n+1 appends
a coordinate).  The induction map sends a level-n basis tuple t to

    t  -  sum over sigma of  dim(sigma) * (t + (sigma,))

and the direct-sum certificate checks, at truncation N, that the images of
levels 1..N-1 together with the complement basis (all level-1 tuples, plus
the tuples with nontrivial last coordinate at levels 2..N) form a Z-basis:
the square matrix they assemble must have determinant +-1.  Its rows are
the level tuples, each at ``tuple_row``: level offset plus base-r code.
``claim_check`` reads the determinant from the matrix's triangular shape,
which ``_triangular_det`` proves column by column from ``f_apply`` itself,
so the certificate speaks about the exported map and the matrix is never
held.  ``claim_matrix`` builds the whole matrix as sparse columns, for
the generic determinant (``intdet.det``) when a column is not of that
shape, and as an oracle for tests.
"""

from __future__ import annotations

import time
from itertools import product
from typing import NamedTuple

from . import intdet
from .errors import LampkError, TruncationError, check_budget, exact_int, quoted
from .grouprep import GroupRepData

MAX_CERTIFICATE_COLUMNS = 100_000

IrrepTuple = tuple[int, ...]


def tuple_dim(group: GroupRepData, t: IrrepTuple) -> int:
    """Dimension of the product representation indexed by the tuple."""
    d = 1
    for idx in t:
        d *= group.dims[idx]
    return d


def f_apply(
    group: GroupRepData, vec: dict[IrrepTuple, int], levels: int
) -> dict[IrrepTuple, int]:
    """Induction map on a vector supported on levels 1..levels-1, given as a
    dict {tuple of int irrep indices: integer}; the image, a dict with no
    zero coefficient, lives on levels 1..levels.

    Linear over the basis rule above.  Equivalently, pointwise: the
    coefficient at a tuple t of level n >= 2 picks up -dims[t[-1]] times
    the input coefficient at its projection.
    """
    if type(levels) is not int:  # once per certificate column: no call for an int
        levels = exact_int(levels, "levels")
    if levels < 2:
        raise LampkError(f"levels must be >= 2, got {levels}")
    r = group.num_irreps
    top = 0
    for t, c in vec.items():
        # a key that is no nonempty tuple is read as (None,); a bool is no index
        for i in t if isinstance(t, tuple) and t else (None,):
            if type(i) is not int or not 0 <= i < r:
                raise LampkError(f"level keys must be nonempty tuples of irrep indices, got {t!r}")
        if c and len(t) > top:
            top = len(t)
    if top > levels - 1:
        raise TruncationError(
            f"input supported at level {top}, "
            f"but the truncation admits inputs only up to level {levels - 1}"
        )
    out: dict[IrrepTuple, int] = {}

    def bump(t, c):
        total = out.get(t, 0) + c
        if total:
            out[t] = total
        else:
            out.pop(t, None)

    for t, c in vec.items():
        if type(c) is not int:
            c = exact_int(c, "coefficient")
        bump(t, c)
        for sigma, d in enumerate(group.dims):
            bump((*t, sigma), -c * d)
    return out


def level_tuples(group: GroupRepData, level: int):
    """All level tuples in lexicographic order."""
    return product(range(group.num_irreps), repeat=level)


def complement_tuples(group: GroupRepData, level: int):
    """The complement basis at one level: level 1 is kept whole, higher
    levels keep the tuples whose last coordinate is nontrivial."""
    if level == 1:
        yield from level_tuples(group, 1)
        return
    for t in level_tuples(group, level):
        if t[-1] != 0:
            yield t


def total_size(group: GroupRepData, levels: int) -> int:
    r = group.num_irreps
    return sum(r**n for n in range(1, levels + 1))


def tuple_row(group: GroupRepData, t: IrrepTuple) -> int:
    """The certificate's row of a level tuple.  Rows run through levels 1,
    2, ... in turn, each in lexicographic order, so a tuple's row is the
    number of tuples at lower levels plus its base-r code."""
    r = group.num_irreps
    code = 0
    for i in t:
        code = code * r + i
    return total_size(group, len(t) - 1) + code


def claim_matrix(group: GroupRepData, levels: int) -> list[list[tuple[int, int]]]:
    """The square certificate matrix at the given truncation, as sparse
    columns of (row, value) pairs, the form ``intdet.det`` takes.

    Rows: all tuples of levels 1..N (level order, then lex).  Columns: the
    images under ``f_apply`` of the level-1..N-1 basis tuples, then the
    unit columns of the complement basis, in the same order.  Column and
    row counts agree by construction.  ``claim_check`` builds it only when
    ``_triangular_det`` finds a column not of its proven shape; tests use
    it as the oracle for that shortcut.  Rows are found through a
    tuple-to-row dict, not ``tuple_row``, so the oracle shares no index
    arithmetic with the shortcut.
    """
    rows = [t for n in range(1, levels + 1) for t in level_tuples(group, n)]
    row_index = {t: i for i, t in enumerate(rows)}
    columns = [
        [(row_index[s], c) for s, c in f_apply(group, {t: 1}, levels).items()]
        for t in rows
        if len(t) < levels
    ]
    columns += [
        [(row_index[t], 1)]
        for n in range(1, levels + 1)
        for t in complement_tuples(group, n)
    ]
    return columns


def _triangular_det(group: GroupRepData, levels: int) -> int | None:
    """The determinant of ``claim_matrix(group, levels)``, read from its
    triangular shape level by level without building it, or None if some
    induction column is not of that shape.

    Each induction column is built with ``f_apply`` and must be exactly
    {t: 1} and {(t, sigma): -d_sigma} for every sigma; only its pivot row
    is kept.  Given that shape, pair each column with a pivot row:

    - a complement column is the unit column of its own row: every level-1
      row and every row with a nontrivial last coordinate;
    - the column ``f_apply(t)`` takes the row (t, 0), where it holds
      -d_0 = -1 (GroupRepData puts the trivial irrep, of dim 1, at 0).
      These rows end in 0 at levels 2..N, so the pairing is a bijection
      of columns onto rows.  The column's other entries lie on complement
      rows, and on t = (t', 0), the pivot of ``f_apply(t')`` one level
      lower, if t is not a complement row;
    - taking the complement columns first, then the induction columns by
      level, every entry off the pivots lies on the pivot row of an
      earlier column.  So once row pivots[j] is moved to place j, putting
      rows and columns alike in that order makes the matrix triangular.

    The determinant is then the sign of that row permutation times the
    pivot values: one 1 per complement column and one -1 per induction
    column.  ``pivots`` lists the pivot rows in ``claim_matrix``'s column
    order, so the sign is that matrix's, not only its magnitude.
    """
    r, dims = group.num_irreps, group.dims
    # C integers, as array("l") holds them, without loading the array
    # module: that costs about 0.13 MB in every cold run
    pivots = memoryview(bytearray(8 * total_size(group, levels))).cast("q")
    j = 0
    for n in range(1, levels):
        first = tuple_row(group, (0,) * (n + 1))
        for code, t in enumerate(level_tuples(group, n)):
            shape = {(*t, sigma): -d for sigma, d in enumerate(dims)}
            shape[t] = 1
            if f_apply(group, {t: 1}, levels) != shape:
                return None
            pivots[j] = first + code * r  # tuple_row(group, (*t, 0))
            j += 1
    induction = j
    for n in range(1, levels + 1):
        first = tuple_row(group, (0,) * n)
        for code in range(r**n):
            if n == 1 or code % r:
                pivots[j] = first + code
                j += 1
    return intdet._parity(pivots) * (-1) ** induction


class ClaimCertificate(NamedTuple):
    group: str
    levels: int
    size: int
    det: int
    elapsed_ms: int

    @property
    def holds(self) -> bool:
        return self.det in (1, -1)


def claim_check(group: GroupRepData, levels: int) -> ClaimCertificate:
    """Certify the direct-sum splitting at a finite truncation.

    Returns the exact determinant of the certificate matrix; the splitting
    holds at this truncation iff it is +-1 (the columns then form a
    Z-basis).  The determinant is read from the matrix's proven triangular
    shape, one induction column at a time (``_triangular_det``); if a
    column is not of that shape, the whole matrix is built and its
    determinant found by ``intdet.det``, so the answer never rests on the
    shortcut.  More than MAX_CERTIFICATE_COLUMNS columns raise BudgetError
    before any is built.  S4 at 7 levels (97 655 columns) takes about
    0.13 s in process and 0.18 s cold through `lampk claim-check`, at
    14.3 MB peak RSS (Python 3.11 on a 2-core Intel Xeon).
    """
    levels = exact_int(levels, "levels")
    if levels < 2:
        raise LampkError(f"levels must be >= 2, got {levels}")
    check_budget(
        f"the certificate of {quoted(group.name, str)} at {levels} levels",
        lambda n: total_size(group, n), MAX_CERTIFICATE_COLUMNS, "columns",
        steps=levels,
    )
    size = total_size(group, levels)
    start = time.monotonic()
    determinant = _triangular_det(group, levels)
    if determinant is None:
        determinant = intdet.det(claim_matrix(group, levels))
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return ClaimCertificate(
        group=group.name,
        levels=levels,
        size=size,
        det=determinant,
        elapsed_ms=elapsed_ms,
    )
