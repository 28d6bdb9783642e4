"""Locally constant integer functions on the full shift over a finite
abelian alphabet.

For abelian F the chain picture and the function picture coincide: a chain
maps to the sum of indicator functions of its words' sparse cylinders (a
word constrains only its nontrivial positions).  A periodic point is its
pattern, a tuple x whose coordinate at position i is x[i % len(x)], and a
cylinder is a set of (position, value) pins.  Everything here is exact
evaluation of such functions at periodic points, together with the
coboundary splitting and the periodic-orbit test, which scans one orbit
per Lyndon word up to a horizon proven to expose every non-coboundary.

The splitting shares the chain-level telescoping pass; only the shift
bookkeeping differs, because pushing a chain forward moves its function
backwards: eval(alpha(c), x) == eval(c, shift(x, -1)).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from . import zchain
from .errors import LampkError, NonAbelianGroupError, check_budget, exact_int, quoted
from .grouprep import GroupRepData
from .shiftwords import check_alphabet
from .zchain import ZChain


def require_abelian(group: GroupRepData) -> None:
    if not group.is_abelian:
        raise NonAbelianGroupError(
            f"{quoted(group.name, str)} is not abelian: the function model on the dual "
            "needs every irreducible representation to be 1-dimensional"
        )


def _pattern(group: GroupRepData, x) -> tuple[int, ...]:
    """The periodic point x as a pattern of irrep indices: its coordinate at
    i is x[i % len(x)], and the period len(x) need not be minimal."""
    x = tuple([v if type(v) is int else exact_int(v, "pattern value") for v in x])
    if not x:
        raise LampkError("a periodic point needs a nonempty pattern")
    r = group.num_irreps
    if not all(0 <= v < r for v in x):
        name = quoted(group.name, str)
        raise LampkError(f"pattern values are irrep indices of {name}, below {r}")
    return x


def beta_eval(group: GroupRepData, chain: ZChain, x: tuple[int, ...]) -> int:
    """Value at the periodic point x (a pattern) of the function the chain
    denotes.

    Coefficients add up Z-linearly over the words' indicators.
    """
    require_abelian(group)
    check_alphabet(group, chain)
    return _rotations_sum(chain, _pattern(group, x), 1)


def cylinder_to_chain(group: GroupRepData, pins) -> ZChain:
    """The unique chain whose function is the indicator of the cylinder
    pinning each given position to its value.

    Unlike in a word, a pin to 0 is meaningful: it fixes the coordinate to
    the trivial index, whereas a position left out is unconstrained.  The
    chain is the projection chain of the pins: for abelian F every
    d_sigma is 1, so a trivial pin expands into (unconstrained) minus the
    sum over the nontrivial values at that position, with coefficients +-1.
    """
    return zchain._trusted_chain(dict(cylinder_terms(group, pins)))


def cylinder_terms(group: GroupRepData, pins) -> zchain.Terms:
    """The terms of ``cylinder_to_chain(group, pins)`` in word order, made
    as they are taken; every check runs before this returns."""
    require_abelian(group)
    return zchain.projection_terms(group, pins)


def coboundary_decompose(group: GroupRepData, f: ZChain) -> zchain.Decomposition:
    """Split the function as (g - g o shift) + h with h on canonical words.

    Chain-level decompose gives f = (m - alpha(m)) + h; transporting
    through evaluation turns the chain coboundary into the function
    coboundary of g = -alpha(m).  The identity

        eval(f, x) == eval(g, x) - eval(g, shift(x, 1)) + eval(h, x)

    then holds at every point.  g is built in the same telescoping pass
    as m would be, each step shifted once more and negated.
    """
    g, h = coboundary_terms(group, f)
    return zchain.Decomposition(zchain._trusted_chain(dict(g)), zchain._trusted_chain(dict(h)))


def coboundary_terms(group: GroupRepData, f: ZChain) -> tuple[zchain.Terms, zchain.Terms]:
    """``coboundary_decompose(group, f)`` as the terms of g and of h in word
    order, g's made as they are taken; every check runs, and h's
    coefficients are found, before this returns."""
    require_abelian(group)
    check_alphabet(group, f)
    return zchain._telescope(f, 1, -1)


def periodic_orbit_sum(group: GroupRepData, f: ZChain, x: tuple[int, ...]) -> int:
    """Sum of the function over one full period of the orbit of the
    periodic point x (a pattern).

    The k-th term is beta_eval at x shifted by k, whose coordinate at p is
    x[(p - k) % n]; it is read off the pattern directly, with no shifted
    pattern built.
    """
    require_abelian(group)
    check_alphabet(group, f)
    pattern = _pattern(group, x)
    return _rotations_sum(f, pattern, len(pattern))


def _rotations_sum(f: ZChain, pattern: tuple[int, ...], rotations: int) -> int:
    """Sum of the function at the pattern shifted by k = 0, ..., rotations - 1,
    unchecked: the callers check the group, the letters and the pattern.
    A word's indicator contributes 1 at a shift exactly when the pattern
    matches every stored (nontrivial) entry there."""
    n = len(pattern)
    total = 0
    for word, coeff in f.items():
        entries = word.entries
        for k in range(rotations):
            for p, idx in entries:
                if pattern[(p - k) % n] != idx:
                    break
            else:
                total += coeff
    return total


def orbit_representatives(
    group: GroupRepData, max_period: int
) -> Iterator[tuple[int, ...]]:
    """One pattern per shift orbit of periodic points, periods 1..max_period.

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
                yield tuple(word)
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
    violating_orbit: tuple[int, ...] | None = None
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
    = 0.  The letter check and the guards run first, so what is refused
    does not depend on the answer.
    """
    require_abelian(group)
    check_alphabet(group, f)
    if max_period is None:
        max_period = default_period_bound(f)
    max_period = exact_int(max_period, "max_period")
    if max_period < 1:
        raise LampkError(f"max_period must be >= 1, got {max_period}")
    r = group.num_irreps
    scan = f"an orbit scan of {quoted(group.name, str)}"

    def patterns(n):
        return sum(r**p for p in range(1, n + 1))
    check_budget(scan, patterns, MAX_SCAN_PATTERNS, "patterns", steps=max_period)
    check_budget(
        scan, lambda n: patterns(n) * max(1, len(f)), MAX_SCAN_EVALUATIONS,
        "evaluations", steps=max_period,
    )
    if not zchain.coinvariant_class(f):
        return LivsicReport(True, True, max_period)
    # every pattern the scan lists is one of the group's, so the checks
    # above stand for each orbit sum
    for point in orbit_representatives(group, max_period):
        total = _rotations_sum(f, point, len(point))
        if total != 0:
            return LivsicReport(
                False, False, max_period, violating_orbit=point, violating_sum=total
            )
    return LivsicReport(False, True, max_period)
