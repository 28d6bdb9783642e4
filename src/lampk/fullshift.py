"""Locally constant integer functions on the full shift over a finite
abelian alphabet.

For abelian F the chain picture and the function picture coincide: a chain
maps to the sum of indicator functions of its words' sparse cylinders (a
word constrains only its nontrivial positions).  Everything here is exact
evaluation of such functions at finitely described points (periodic
points, or eventually-trivial points given by a word), together with the
coboundary splitting and the periodic-orbit vanishing test.

The splitting delegates to the chain-level decomposition; only the shift
bookkeeping differs, because pushing a chain forward moves its function
backwards: eval(alpha(c), x) == eval(c, shift(x, -1)).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Union

from . import zchain
from .errors import LampkError, NonAbelianGroupError
from .grouprep import GroupRepData
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

    def least_rotation(self) -> tuple[int, ...]:
        p = len(self.pattern)
        return min(tuple(self.pattern[(i + s) % p] for i in range(p)) for s in range(p))

    def minimal_period(self) -> int:
        p = len(self.pattern)
        for d in range(1, p + 1):
            if p % d == 0 and all(
                self.pattern[i] == self.pattern[i % d] for i in range(p)
            ):
                return d
        return p

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
            try:
                pos, idx = int(pos), int(idx)
            except (TypeError, ValueError) as exc:
                raise LampkError(f"malformed cylinder constraint: {exc}") from exc
            if idx < 0:
                raise LampkError(f"constraint value must be >= 0, got {idx}")
            cleaned[pos] = idx
        self.constraints = dict(sorted(cleaned.items()))

    def __repr__(self) -> str:
        return f"CylinderSpec({self.constraints})"


def cylinder_to_chain(group: GroupRepData, spec: CylinderSpec) -> ZChain:
    """The unique chain whose function is the cylinder's indicator.

    Pinning a coordinate to the trivial index is not a word constraint, so
    it expands by inclusion-exclusion: (unconstrained) minus the sum over
    the nontrivial values at that position.  All coefficients are +-1.
    """
    require_abelian(group)
    r = group.num_irreps
    for idx in spec.constraints.values():
        if idx >= r:
            raise LampkError(f"constraint value {idx} out of range for {group.name}")
    fixed = [(p, i) for p, i in spec.constraints.items() if i != 0]
    trivial_positions = [p for p, i in spec.constraints.items() if i == 0]
    # Each trivial position contributes either "absent" (+) or one
    # nontrivial value (-).
    options = [[(None, 1)] + [(g, -1) for g in range(1, r)] for _ in trivial_positions]
    terms = []
    for choice in product(*options):
        coeff = 1
        entries = list(fixed)
        for pos, (val, sign) in zip(trivial_positions, choice):
            coeff *= sign
            if val is not None:
                entries.append((pos, val))
        terms.append((Word(entries), coeff))
    return ZChain(terms)


class FunctionDecomposition(NamedTuple):
    witness: ZChain
    canonical: ZChain


def coboundary_decompose(group: GroupRepData, f: ZChain) -> FunctionDecomposition:
    """Split the function as (g - g o shift) + h with h on canonical words.

    Chain-level decompose gives f = (m - alpha(m)) + h; transporting
    through evaluation turns the chain coboundary into the function
    coboundary of g = -alpha(m).  The identity

        eval(f, x) == eval(g, x) - eval(g, shift(x, 1)) + eval(h, x)

    then holds at every point.
    """
    require_abelian(group)
    m, canonical = zchain.decompose(f)
    return FunctionDecomposition(witness=-zchain.alpha(m), canonical=canonical)


def periodic_orbit_sum(group: GroupRepData, f: ZChain, x: PeriodicPoint) -> int:
    """Sum of the function over one full period of the orbit of x."""
    require_abelian(group)
    return sum(
        beta_eval(group, f, x.shifted(k)) for k in range(x.period)
    )


def orbit_representatives(group: GroupRepData, max_period: int) -> Iterator[PeriodicPoint]:
    """One point per shift orbit of periodic points, periods 1..max_period.

    Deduplicated by least rotation; patterns whose minimal period is
    shorter are skipped (their orbit already appeared).
    """
    r = group.num_irreps
    for p in range(1, max_period + 1):
        for pattern in product(range(r), repeat=p):
            point = PeriodicPoint(pattern)
            if point.minimal_period() != p:
                continue
            if pattern != point.least_rotation():
                continue
            yield point


def default_period_bound(f: ZChain) -> int:
    """Period horizon for the orbit test: one past the support width.

    w is one past the largest supported position over the words of f (at
    least 1); checking periods up to w + 1 empirically suffices for the
    converse direction, which rests on periodic-point density and carries
    no effective bound.
    """
    w = max((word.max_support + 1 for word in f if not word.is_empty), default=0)
    return max(w, 1) + 1


@dataclass(frozen=True)
class LivsicReport:
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

    The exact answer comes from the splitting (coboundary iff the
    canonical part vanishes); the orbit sums over all periods up to
    max_period (default: default_period_bound) must agree with it:
    vanishing sums with a nonzero canonical part would be a bound
    violation and are surfaced through the report, never suppressed.
    """
    require_abelian(group)
    if max_period is None:
        max_period = default_period_bound(f)
    if max_period < 1:
        raise LampkError(f"max_period must be >= 1, got {max_period}")
    exact = not coboundary_decompose(group, f).canonical
    for point in orbit_representatives(group, max_period):
        total = periodic_orbit_sum(group, f, point)
        if total != 0:
            return LivsicReport(
                is_coboundary_exact=exact,
                periodic_sums_vanish=False,
                max_period_checked=max_period,
                violating_orbit=point,
                violating_sum=total,
            )
    return LivsicReport(
        is_coboundary_exact=exact,
        periodic_sums_vanish=True,
        max_period_checked=max_period,
    )
