"""Levelwise bookkeeping for the inductive-limit K-group computation.

Level n carries the dual of the n-fold product group, indexed by length-n
tuples of irrep indices (one-sided convention: passing to level n+1 appends
a coordinate).  The induction map sends a level-n basis tuple t to

    t  -  sum over sigma of  dim(sigma) * (t + (sigma,))

and the direct-sum certificate checks, at truncation N, that the images of
levels 1..N-1 together with the complement basis (all level-1 tuples, plus
the tuples with nontrivial last coordinate at levels 2..N) form a Z-basis:
the square matrix they assemble must have determinant +-1.  The matrix is
built column by column from ``f_apply`` itself, so the certificate speaks
about the exported map, and it stays sparse (r + 1 nonzeros in an
induction column, one in a complement column) all the way into the exact
determinant, which singleton peeling (``intdet.det``) finds with no dense
step: the matrix is triangular by level once the complement is peeled.
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


def claim_matrix(group: GroupRepData, levels: int) -> list[list[tuple[int, int]]]:
    """The square certificate matrix at the given truncation, as sparse
    columns of (row, value) pairs, the form ``intdet.det`` takes.

    Rows: all tuples of levels 1..N (level order, then lex).  Columns: the
    images under ``f_apply`` of the level-1..N-1 basis tuples, then the
    unit columns of the complement basis, in the same order.  Column and
    row counts agree by construction.

    Singleton peeling reduces this matrix completely, so its determinant
    is +-1 and ``intdet.det`` needs no other step:

    - each complement column is a unit column; peeling it removes its row,
      so every level-1 row and every row with a nontrivial last coordinate
      goes;
    - the rows left are (t, 0) for t of levels 1..N-1, one for each column
      left, ``f_apply(t)``; that column hits (t, 0) with -d_0 = -1, and
      otherwise only t itself (+1), when t = (t', 0) is a row left one
      level lower;
    - pairing column ``f_apply(t)`` with row (t, 0), the rest is triangular
      by level with -1 on the diagonal.  A singleton of a triangular matrix
      with nonzero diagonal is a diagonal entry, and removing its row and
      column leaves such a matrix again, so peeling ends with nothing left,
      in whatever order it takes the singletons.
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

    Builds the sparse certificate matrix and returns its exact
    determinant; the splitting holds at this truncation iff the
    determinant is +-1 (the columns then form a Z-basis).  More than
    MAX_CERTIFICATE_COLUMNS columns raise BudgetError before any is built;
    S4 at 7 levels (97 655 columns) takes about 0.5 to 0.9 s, in process
    or cold through `lampk claim-check` at 91 MB peak RSS (Python 3.11 on
    a 2-core Intel Xeon).
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
    matrix = claim_matrix(group, levels)
    determinant = intdet.det(matrix)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return ClaimCertificate(
        group=group.name,
        levels=levels,
        size=size,
        det=determinant,
        elapsed_ms=elapsed_ms,
    )
