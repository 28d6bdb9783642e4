"""Locally constant integer functions on the full shift over a finite
abelian alphabet.

For abelian F the chain picture and the function picture coincide: a chain
maps to the sum of indicator functions of its words' sparse cylinders (a
word constrains only its nontrivial positions).  Everything here is exact
evaluation of such functions at finitely described points (periodic
points, or eventually-trivial points given by a word), together with the
coboundary splitting and the periodic-orbit test, which scans one orbit
per Lyndon word up to a horizon proven to expose every non-coboundary.

The splitting delegates to the chain-level decomposition; only the shift
bookkeeping differs, because pushing a chain forward moves its function
backwards: eval(alpha(c), x) == eval(c, shift(x, -1)).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import NamedTuple, Union

from . import zchain
from .errors import LampkError, NonAbelianGroupError, check_budget
from .grouprep import GroupRepData
from .jsonio import exact_int
from .shiftwords import Word, shift
from .zchain import ZChain


def require_abelian(group: GroupRepData) -> None:
    if not group.is_abelian:
        raise NonAbelianGroupError(
            f"{group.name} is not abelian: the function model on the dual "
            "needs every irreducible representation to be 1-dimensional"
        )


class PeriodicPoint:
    """A point of the full shift repeating a finite pattern.

    pattern[i] is the coordinate at position i; the period is the pattern
    length and need not be minimal.
    """

    __slots__ = ("pattern",)

    def __init__(self, pattern):
        pattern = tuple(int(v) for v in pattern)
        if not pattern:
            raise LampkError("a periodic point needs a nonempty pattern")
        if any(v < 0 for v in pattern):
            raise LampkError("pattern values are irrep indices, >= 0")
        self.pattern = pattern

    @property
    def period(self) -> int:
        return len(self.pattern)

    def value_at(self, pos: int) -> int:
        return self.pattern[pos % len(self.pattern)]

    def shifted(self, k: int) -> "PeriodicPoint":
        """The translated point: coordinate at i becomes the old one at i - k."""
        p = len(self.pattern)
        return PeriodicPoint(tuple(self.pattern[(i - k) % p] for i in range(p)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicPoint):
            return NotImplemented
        return self.pattern == other.pattern

    def __hash__(self) -> int:
        return hash(self.pattern)

    def __repr__(self) -> str:
        return f"PeriodicPoint({self.pattern})"


# Eventually-trivial points are just words read as points: value_at gives 0
# off the support.
Point = Union[PeriodicPoint, Word]


def shift_point(x: Point, k: int) -> Point:
    return x.shifted(k) if isinstance(x, PeriodicPoint) else shift(x, k)


def beta_eval(group: GroupRepData, chain: ZChain, x: Point) -> int:
    """Value at x of the function the chain denotes.

    A word's indicator contributes 1 exactly when x matches every stored
    (nontrivial) entry; coefficients add up Z-linearly.
    """
    require_abelian(group)
    total = 0
    for word, coeff in chain.items():
        if all(x.value_at(p) == idx for p, idx in word.entries):
            total += coeff
    return total


class CylinderSpec:
    """A full cylinder: finitely many positions pinned to exact values.

    Unlike a word, a constraint value of *0 is meaningful*: it pins the
    coordinate to the trivial index, whereas an absent position is
    unconstrained.
    """

    __slots__ = ("constraints",)

    def __init__(self, constraints: Mapping[int, int] | None = None):
        cleaned = {}
        for pos, idx in (constraints or {}).items():
            pos = exact_int(pos, "cylinder position")
            idx = exact_int(idx, "cylinder value")
            if idx < 0:
                raise LampkError(f"constraint value must be >= 0, got {idx}")
            cleaned[pos] = idx
        self.constraints = dict(sorted(cleaned.items()))

    def __repr__(self) -> str:
        return f"CylinderSpec({self.constraints})"


def cylinder_to_chain(group: GroupRepData, spec: CylinderSpec) -> ZChain:
    """The unique chain whose function is the cylinder's indicator.

    It is the projection chain of the cylinder's pins: for abelian F every
    d_sigma is 1, so a trivial pin expands into (unconstrained) minus the
    sum over the nontrivial values at that position, with coefficients +-1.
    """
    require_abelian(group)
    return zchain.projection_chain(group, spec.constraints.items())


def coboundary_decompose(group: GroupRepData, f: ZChain) -> zchain.Decomposition:
    """Split the function as (g - g o shift) + h with h on canonical words.

    Chain-level decompose gives f = (m - alpha(m)) + h; transporting
    through evaluation turns the chain coboundary into the function
    coboundary of g = -alpha(m).  The identity

        eval(f, x) == eval(g, x) - eval(g, shift(x, 1)) + eval(h, x)

    then holds at every point.
    """
    require_abelian(group)
    m, canonical = zchain.decompose(f)
    return zchain.Decomposition(witness=-zchain.alpha(m), canonical=canonical)


def periodic_orbit_sum(group: GroupRepData, f: ZChain, x: PeriodicPoint) -> int:
    """Sum of the function over one full period of the orbit of x.

    The k-th term is beta_eval at x.shifted(k), whose coordinate at p is
    pattern[(p - k) % n]; it is read off the pattern directly, with no
    shifted point built.
    """
    require_abelian(group)
    pattern = x.pattern
    n = len(pattern)
    total = 0
    for word, coeff in f.items():
        entries = word.entries
        for k in range(n):
            for p, idx in entries:
                if pattern[(p - k) % n] != idx:
                    break
            else:
                total += coeff
    return total


def orbit_representatives(group: GroupRepData, max_period: int) -> Iterator[PeriodicPoint]:
    """One point per shift orbit of periodic points, periods 1..max_period.

    An orbit of least period n is read off its least rotation, a Lyndon
    word of length n, and every such word stands for one orbit.  Duval's
    generator (Duval 1988; Fredricksen-Kessler-Maiorana) lists the Lyndon
    words of length at most n in lexicographic order at constant amortized
    cost; run once per period, keeping the words of length exactly n, it
    yields the orbits by period, then lexicographically.
    """
    r = group.num_irreps
    for n in range(1, max_period + 1):
        word = [-1]
        while word:
            word[-1] += 1
            if len(word) == n:
                yield PeriodicPoint(word)
            m = len(word)
            while len(word) < n:
                word.append(word[-m])
            while word and word[-1] == r - 1:
                word.pop()


def default_period_bound(f: ZChain) -> int:
    """The proven horizon of the orbit test: 2w - 1, or 1 for constant f.

    w = max(max_support) - min(min_support) + 1 over the nonempty words of
    f, so it does not change under translation.  Proof that 2w - 1 periods
    suffice: f reads w consecutive coordinates, so it is a function on the
    edges of the de Bruijn graph B(r, w - 1), whose diameter is w - 1.  Fix
    a root vertex and, for every vertex v, paths P_v (root to v) and Q_v
    (v to root) of length w - 1; set phi(v) = f(P_v).  If every edge
    e = u -> v has f(e) = phi(v) - phi(u), f is a coboundary.  Otherwise
    one of the closed walks P_u e Q_v (length 2w - 1) and P_v Q_v
    (length 2w - 2) has a nonzero sum, and a closed walk of length L is a
    periodic point of period L, whose least period divides L.  So a
    non-coboundary has a nonvanishing orbit of period at most 2w - 1.
    """
    words = [word for word in f if not word.is_empty]
    if not words:
        return 1
    lo = min(word.min_support for word in words)
    hi = max(word.max_support for word in words)
    return 2 * (hi - lo + 1) - 1


# Patterns (r^p summed over the periods) one orbit scan may stand for: the
# zero chain over C2 scans to period 16 (131 070 patterns) in about a second.
MAX_SCAN_PATTERNS = 1 << 17

# Word evaluations one orbit scan may stand for, counted as patterns times
# the chain's terms: each pattern is read once per term, and 2^22 of them
# take about a second.
MAX_SCAN_EVALUATIONS = 1 << 22


class LivsicReport(NamedTuple):
    is_coboundary_exact: bool
    periodic_sums_vanish: bool
    max_period_checked: int
    violating_orbit: PeriodicPoint | None = None
    violating_sum: int | None = None

    @property
    def consistent(self) -> bool:
        return self.is_coboundary_exact == self.periodic_sums_vanish


def livsic_check(
    group: GroupRepData, f: ZChain, max_period: int | None = None
) -> LivsicReport:
    """Coboundary test against the periodic-orbit criterion.

    The exact answer comes from the co-invariant class (coboundary iff it
    vanishes).  Scanned up to default_period_bound (the default
    max_period) the orbit sums vanish exactly for coboundaries,
    and the first nonzero one in scan order is the witness; a shorter
    horizon is a bounded check.  A scan standing for more than
    MAX_SCAN_PATTERNS patterns, or more than MAX_SCAN_EVALUATIONS patterns
    times terms, raises BudgetError before it starts.

    A proven coboundary skips the scan, because every orbit sum of
    f = g - g o shift vanishes: over a point x of period n the sum
    telescopes, sum_k (g(shift^k x) - g(shift^(k+1) x)) = g(x) - g(shift^n x)
    = 0.  The guards still run first, so what is refused does not depend
    on the answer.
    """
    require_abelian(group)
    if max_period is None:
        max_period = default_period_bound(f)
    if max_period < 1:
        raise LampkError(f"max_period must be >= 1, got {max_period}")
    r = group.num_irreps
    scan = f"an orbit scan of {group.name}"

    def patterns(n):
        return sum(r**p for p in range(1, n + 1))
    check_budget(scan, patterns, MAX_SCAN_PATTERNS, "patterns", steps=max_period)
    check_budget(
        scan, lambda n: patterns(n) * max(1, len(f)), MAX_SCAN_EVALUATIONS,
        "evaluations", steps=max_period,
    )
    if not zchain.coinvariant_class(f):
        return LivsicReport(True, True, max_period)
    for point in orbit_representatives(group, max_period):
        total = periodic_orbit_sum(group, f, point)
        if total != 0:
            return LivsicReport(
                False, False, max_period, violating_orbit=point, violating_sum=total
            )
    return LivsicReport(False, True, max_period)
