"""The acceptance criteria, runnable as a library.

Each criterion is a self-contained check with pinned parameters and a time
budget; the CLI selfcheck command and the pytest acceptance module both run
exactly these.  Every numeric claim is exact; the only tolerances anywhere
are the per-criterion time budgets.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from . import DEFAULT_SEED, intdet, zchain
from .colimitk import (
    claim_check, complement_tuples, f_apply, level_tuples, tuple_dim,
)
from .errors import LampkError
from .fullshift import (
    beta_eval,
    coboundary_decompose,
    livsic_check,
    orbit_representatives,
    periodic_orbit_sum,
)
from .grouprep import ISO, NOT_ISO, UNDECIDED, builtin, csalgebras_isomorphic_abelian_case
from .lamplighterk import pv_check, trace_of_chain, trace_image_level
from .sampling import random_chain, window_range
from .shiftwords import (
    EMPTY_WORD,
    Word,
    canonical_count,
    canonicalize,
    enumerate_canonical,
    shift,
)
from .zchain import ZChain, projection_chain


class CheckFailure(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _signature(word: Word) -> tuple[int, ...]:
    """Translation-invariant orbit fingerprint, independent of canonicalize:
    the index vector read off between the first and last nonzero entry."""
    if not word.entries:
        return ()
    values = dict(word.entries)
    return tuple(values.get(p, 0) for p in range(min(values), max(values) + 1))


def check_orbit_representatives() -> str:
    """Brute-force orbit classification agrees with canonicalize; counts
    match the closed form."""
    for name in ("C2", "C3"):
        group = builtin(name)
        r = group.num_irreps
        sig_to_rep: dict[tuple, Word] = {}
        for vec in product(range(r), repeat=9):
            word = Word((p - 4, v) for p, v in enumerate(vec) if v)
            rep, offset = canonicalize(word)
            _require(shift(rep, offset) == word, f"round trip failed for {word!r}")
            _require(rep.is_canonical(), f"non-canonical rep for {word!r}")
            sig = _signature(word)
            if sig in sig_to_rep:
                _require(
                    sig_to_rep[sig] == rep,
                    f"{name}: same orbit, different reps for {word!r}",
                )
            else:
                sig_to_rep[sig] = rep
        reps = list(sig_to_rep.values())
        _require(
            len(set(reps)) == len(reps),
            f"{name}: distinct orbits shared a representative",
        )
        for max_len in range(1, 7):
            enumerated = enumerate_canonical(group, max_len)
            _require(
                len(set(enumerated)) == len(enumerated),
                f"{name}: duplicate canonical words at max_len={max_len}",
            )
            _require(
                all(w.is_canonical() for w in enumerated),
                f"{name}: non-canonical word enumerated at max_len={max_len}",
            )
            brute = {
                _signature(Word((p, v) for p, v in enumerate(vec) if v))
                for vec in product(range(r), repeat=max_len)
            }
            formula = canonical_count(group, max_len)
            _require(
                len(enumerated) == formula == len(brute),
                f"{name}: count mismatch at max_len={max_len}: "
                f"enumerated {len(enumerated)}, formula {formula}, brute {len(brute)}",
            )
    return "orbit partitions and counts agree for C2, C3 over [-4, 4]"


def check_direct_sum_claim() -> str:
    """Certificate determinant is +-1 at every pinned truncation."""
    configs = [
        ("C2", 2), ("C2", 3), ("C2", 4),
        ("C3", 2), ("C3", 3),
        ("S3", 2), ("S3", 3),
    ]
    dets = []
    for name, levels in configs:
        cert = claim_check(builtin(name), levels)
        _require(
            cert.holds,
            f"det = {cert.det} for ({name}, {levels}): splitting fails",
        )
        dets.append(f"({name},{levels}): {cert.size}x{cert.size} det {cert.det}")
    return "; ".join(dets)


def check_pv_bookkeeping() -> str:
    """Kernel/cokernel properties on 1000 seeded chains per group."""
    for name in ("C2", "S3"):
        report = pv_check(builtin(name), samples=1000, window=4, seed=DEFAULT_SEED)
        _require(
            report.passed,
            f"{name}: {report.counterexamples} counterexamples",
        )
    return "1000 chains per group, window 4: no counterexamples"


def check_trace_image() -> str:
    """Levelwise trace image is 1/|F|^n; traces kill coboundaries."""
    rng = random.Random(DEFAULT_SEED)
    for name in ("C2", "C3", "S3", "Q8"):
        group = builtin(name)
        for n in range(0, 5):
            expected = Fraction(1, group.order**n)
            got = trace_image_level(group, n)
            _require(
                got == expected,
                f"{name}, level {n}: generator {got}, expected {expected}",
            )
        for _ in range(500):
            m = random_chain(rng, group, window_range(4))
            value = trace_of_chain(group, m - zchain.alpha(m))
            _require(
                value == 0,
                f"{name}: coboundary of {m!r} has trace {value}",
            )
    return "generators 1/|F|^n for n <= 4; 500 coboundary traces vanish per group"


def _phi(group, vec) -> ZChain:
    """Phi on (level tuple, coefficient) pairs, each tuple pinned at 0, 1, ..."""
    return sum((c * projection_chain(group, enumerate(t)) for t, c in vec), ZChain())


def check_assembly_correspondence() -> str:
    """Phi(t), the projection chain of t pinned at 0, 1, ..., kills the
    induction map, keeps traces, and is unitriangular on the complement
    basis, whose leading words fall into exactly the canonical classes."""
    for name, levels in (("C2", 5), ("S3", 4), ("S4", 3)):
        group = builtin(name)
        leading = []
        for n in range(1, levels + 1):
            complement = set(complement_tuples(group, n))
            for t in level_tuples(group, n):
                image, word = projection_chain(group, enumerate(t)), Word(enumerate(t))
                trace = trace_of_chain(group, image)
                expected = Fraction(tuple_dim(group, t), group.order**n)
                _require(trace == expected, f"{name}: Phi{t} has trace {trace}")
                if n < levels:
                    induced = f_apply(group, {t: 1}, levels)
                    _require(not _phi(group, induced.items()), f"{name}: Phi keeps f_apply{t}")
                if t in complement:
                    longer = all(len(w.entries) > len(word.entries) for w in image if w != word)
                    _require(
                        image.coeff(word) == 1 and longer,
                        f"{name}: Phi{t} is not {word!r} plus longer words",
                    )
                    leading.append(word)
        classes = {canonicalize(w)[0] for w in leading}
        _require(
            len(set(leading)) == len(leading) == group.num_irreps**levels
            and classes == set(enumerate_canonical(group, levels)),
            f"{name}: the leading words at N={levels} miss a word or a class",
        )
    return "Phi kills f_apply, keeps traces, is unitriangular: C2:5, S3:4, S4:3"


def check_beta_freeness() -> str:
    """Canonical cylinder functions are Z-free on length-5 patterns;
    evaluation is shift-equivariant."""
    for name in ("C2", "C3"):
        group = builtin(name)
        r = group.num_irreps
        words = enumerate_canonical(group, 4)
        patterns = list(product(range(r), repeat=5))
        columns = [
            [
                (k, 1)
                for k, pattern in enumerate(patterns)
                if all(pattern[p] == v for p, v in w.entries)
            ]
            for w in words
        ]
        rk = intdet.rank(columns, len(patterns))
        _require(
            rk == len(words),
            f"{name}: rank {rk} < {len(words)} columns, not free",
        )
    rng = random.Random(DEFAULT_SEED)
    for i in range(500):
        group = builtin("C2" if i % 2 else "C3")
        chain = random_chain(rng, group, window_range(3))
        x = tuple(rng.randrange(group.num_irreps) for _ in range(rng.randint(1, 6)))
        _require(
            beta_eval(group, zchain.alpha(chain), x)
            == beta_eval(group, chain, x[1:] + x[:1]),
            f"equivariance failed for {chain!r} at {x!r}",
        )
    return "full column rank for r in {2,3}; 500 equivariance samples"


def check_function_decomposition() -> str:
    """f - (g - g o shift) - h vanishes at every point, by exhaustive
    evaluation over the dependence window of each sample."""
    rng = random.Random(DEFAULT_SEED)
    for i in range(500):
        group = builtin("C2" if i % 2 else "C3")
        r = group.num_irreps
        f = random_chain(rng, group, range(0, 4))
        g, h = coboundary_decompose(group, f)
        positions = set()
        for chain in (f, h):
            for word in chain:
                positions.update(word.support)
        for word in g:
            positions.update(word.support)
            positions.update(p - 1 for p in word.support)
        if not positions:
            positions = {0}  # everything constant: one coordinate suffices
        lo, hi = min(positions), max(positions)

        # (sign, entries as pattern indices) per term of the residual
        terms = []

        def add_terms(chain, read_offset, sign):
            for word, coeff in chain.items():
                entries = [(p + read_offset - lo, v) for p, v in word.entries]
                terms.append((sign * coeff, entries))

        add_terms(f, 0, +1)
        add_terms(g, 0, -1)   # - g(x)
        add_terms(g, -1, +1)  # + g(shift(x, 1)) reads coordinate p - 1
        add_terms(h, 0, -1)
        for pattern in product(range(r), repeat=hi - lo + 1):
            residual = sum(
                c for c, entries in terms if all(pattern[k] == v for k, v in entries)
            )
            _require(
                residual == 0,
                f"functional identity failed for sample {i} at {pattern}: {f!r}",
            )
    return "500 samples: identity holds on every dependence-window pattern"


def check_livsic() -> str:
    """Coboundary test vs periodic-orbit sums: forward exact, converse
    fuzz clean, canonical rejections present."""
    for name in ("C2", "C3"):
        group = builtin(name)
        report = livsic_check(group, ZChain.of(EMPTY_WORD), max_period=1)
        _require(
            not report.is_coboundary_exact
            and not report.periodic_sums_vanish
            and report.violating_orbit == (0,)
            and report.violating_sum == 1,
            f"{name}: constant function 1 not rejected via the trivial fixed point",
        )
        for g in range(1, group.num_irreps):
            report = livsic_check(group, ZChain.of(Word({0: g})), max_period=1)
            _require(
                not report.is_coboundary_exact
                and not report.periodic_sums_vanish
                and report.violating_orbit == (g,)
                and report.violating_sum == 1,
                f"{name}: single-letter indicator {g} not rejected",
            )
    rng = random.Random(DEFAULT_SEED)
    coboundary_samples = 0
    for i in range(500):
        group = builtin("C2" if i % 2 else "C3")
        if i % 3 == 0:
            m = random_chain(rng, group, range(0, 3))
            f = m - zchain.alpha(m)
        else:
            f = random_chain(rng, group, range(0, 3))
        report = livsic_check(group, f)
        _require(
            report.consistent,
            f"sample {i}: coboundary={report.is_coboundary_exact} but "
            f"sums vanish={report.periodic_sums_vanish} "
            f"(orbit {report.violating_orbit!r}, sum {report.violating_sum}); "
            f"period bound violation, f = {f!r}",
        )
        if report.is_coboundary_exact:
            # livsic_check answers a proven coboundary without scanning, so
            # the forward direction is checked here by the scan itself
            coboundary_samples += 1
            horizon = report.max_period_checked
            _require(
                all(
                    periodic_orbit_sum(group, f, x) == 0
                    for x in orbit_representatives(group, horizon)
                ),
                f"sample {i}: forward direction failed for {f!r}",
            )
    return (
        f"500 fuzz samples consistent at the default period bound "
        f"({coboundary_samples} exact coboundaries); explicit rejections hold"
    )


def check_classification() -> str:
    """The decision predicate on the three pinned pairs."""
    cases = [
        ("C4", "klein4", ISO),
        ("C6", "S3", NOT_ISO),
        ("S3", "D4", UNDECIDED),
    ]
    for a, b, expected in cases:
        got = csalgebras_isomorphic_abelian_case(builtin(a), builtin(b))
        _require(got == expected, f"({a}, {b}): got {got}, expected {expected}")
        sym = csalgebras_isomorphic_abelian_case(builtin(b), builtin(a))
        _require(sym == got, f"({a}, {b}): decision not symmetric")
    return "iso / not-iso / undecided as pinned, symmetric"


@dataclass(frozen=True)
class Criterion:
    cid: int
    name: str
    budget_s: float
    run: Callable[[], str]


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "orbit-representatives", 5.0, check_orbit_representatives),
    Criterion(2, "direct-sum-claim", 30.0, check_direct_sum_claim),
    Criterion(3, "pv-bookkeeping", 10.0, check_pv_bookkeeping),
    Criterion(4, "trace-image", 5.0, check_trace_image),
    Criterion(5, "assembly-correspondence", 1.0, check_assembly_correspondence),
    Criterion(6, "beta-freeness", 10.0, check_beta_freeness),
    Criterion(7, "function-decomposition", 10.0, check_function_decomposition),
    Criterion(8, "livsic", 20.0, check_livsic),
    Criterion(9, "classification", 1.0, check_classification),
)


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    status: str  # pass | fail | skipped
    elapsed_s: float
    detail: str


def run_criterion(criterion: Criterion) -> CriterionResult:
    start = time.monotonic()
    try:
        detail = criterion.run()
        status = "pass"
    except CheckFailure as exc:
        detail = str(exc)
        status = "fail"
    elapsed = time.monotonic() - start
    return CriterionResult(
        cid=criterion.cid,
        name=criterion.name,
        status=status,
        elapsed_s=elapsed,
        detail=detail,
    )


def run_all(budget_s: float | None = None) -> list[CriterionResult]:
    """Run criteria in order; once budget_s seconds are spent, no further
    criterion starts and each is reported skipped, so a budget of 0 starts
    none.  A NaN budget, which no elapsed time reaches, is a LampkError."""
    if budget_s is not None and math.isnan(budget_s):
        raise LampkError("budget_s must be a number of seconds, got nan")
    results = []
    start = time.monotonic()
    for criterion in CRITERIA:
        if budget_s is not None and time.monotonic() - start >= budget_s:
            results.append(
                CriterionResult(
                    cid=criterion.cid,
                    name=criterion.name,
                    status="skipped",
                    elapsed_s=0.0,
                    detail="time budget exhausted",
                )
            )
            continue
        results.append(run_criterion(criterion))
    return results
