"""The trace on K_0 of the lamplighter crossed product, and pv_check, a
sampled check of the kernel/cokernel bookkeeping in ``zchain``.

The trace of a basis word is the product of its entry dimensions over |F|
to the support size, an exact rational; levelwise these traces generate
exactly 1/|F|^n of the integers.  Each trace is computed as a reduced
integer pair (num, den); the public trace_of_* and trace_image_level
return it as a Fraction.  The K_0 basis itself is
``shiftwords.enumerate_canonical``; ``zchain.projection_chain`` joins it
to the levelwise model of ``colimitk``.
"""

from __future__ import annotations

import random
import sys
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from . import zchain
from .errors import LampkError, check_budget, exact_int, quoted
from .grouprep import GroupRepData
from .sampling import random_chain, window_range
from .shiftwords import EMPTY_WORD, Word, canonicalize, check_alphabet
from .zchain import ZChain

# fractions loads decimal: only the Fraction-valued entries import it, when
# called, and the CLI prints the integer pairs.
if TYPE_CHECKING:
    from fractions import Fraction


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def _dims_product(group: GroupRepData, word: Word) -> int:
    numerator = 1
    for _, idx in word.entries:
        numerator *= group.dims[idx]
    return numerator


def trace_pair_of_word(group: GroupRepData, word: Word) -> tuple[int, int]:
    """The trace of a word as the reduced pair (num, den), den > 0: the
    product of its entry dimensions over |F| to its support size, reduced
    by one gcd.  The empty word is the class of the unit, trace (1, 1)."""
    check_alphabet(group, (word,))
    return _reduced(_dims_product(group, word), group.order ** len(word.entries))


def trace_pair_of_chain(group: GroupRepData, chain: ZChain) -> tuple[int, int]:
    """The Z-linear extension of trace_pair_of_word: every term over the
    common denominator |F|^(largest support size), reduced once."""
    check_alphabet(group, chain)
    sizes = {len(word.entries) for word in chain}
    support = max(sizes, default=0)
    scale = {k: group.order ** (support - k) for k in sizes}
    numerator = 0
    for word, coeff in chain.items():
        numerator += coeff * _dims_product(group, word) * scale[len(word.entries)]
    return _reduced(numerator, group.order**support)


def trace_image_pair(group: GroupRepData, n: int) -> tuple[int, int]:
    """The positive generator of the trace values on words supported in
    [0, n), as the pair (num, den).

    Over the denominator |F|^n each position contributes |F| (trivial
    letter) or d_sigma to the numerator, and the gcd of a product set is
    the product of the gcds: gcd(|F|, d_1, ..., d_{r-1})^n / |F|^n.  As
    |F| = sum of d_sigma^2 with d_0 = 1, that gcd is 1, so the pair is
    reduced.  A denominator with more digits than the interpreter prints
    raises BudgetError before it is computed.
    """
    n = exact_int(n, "level")
    if n < 0:
        raise LampkError(f"level must be >= 0, got {n}")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        check_budget(
            f"the level-{n} denominator |{quoted(group.name, str)}|^{n}",
            lambda k: group.order**k, 10**digits - 1, "digits", steps=n, stated=digits,
        )
    return gcd(group.order, *group.dims[1:]) ** n, group.order**n


def trace_of_word(group: GroupRepData, word: Word) -> Fraction:
    """Trace of the minimal-projection class of a word: trace_pair_of_word
    as a Fraction."""
    from fractions import Fraction

    return Fraction(*trace_pair_of_word(group, word))


def trace_of_chain(group: GroupRepData, chain: ZChain) -> Fraction:
    """Z-linear extension of trace_of_word: trace_pair_of_chain as a
    Fraction."""
    from fractions import Fraction

    return Fraction(*trace_pair_of_chain(group, chain))


def trace_image_level(group: GroupRepData, n: int) -> Fraction:
    """Positive generator of the trace values on words supported in
    [0, n): trace_image_pair as a Fraction."""
    from fractions import Fraction

    return Fraction(*trace_image_pair(group, n))


class PVReport(NamedTuple):
    """Outcome of the kernel/cokernel property checks on random chains.

    ``counterexamples`` counts failed checks and must stay 0: the shift
    fixes exactly the multiples of the empty word, the canonical projection
    kills exactly the chains of the form m - alpha(m), and the splitting
    identity holds term-exactly for every sampled chain.
    """

    group: str
    samples: int
    window: int
    seed: int
    counterexamples: int

    @property
    def passed(self) -> bool:
        return self.counterexamples == 0


# Positions the samples of one pv_check may draw from, counted as
# samples * (2 * window + 1): the default 1000 samples at window 4 are 9 000
# of them and take about 0.2 s.  A sampled chain has at most 5 words of at
# most 4 entries within the window, so its witness has at most 20 * window
# entries: a window past zchain.MAX_WITNESS_TERMS / 20 is refused before the
# first sample, not by the split of whichever sample first needs more.
MAX_SAMPLED_POSITIONS = 1 << 15


def pv_check(
    group: GroupRepData, samples: int, window: int, seed: int
) -> PVReport:
    """Property-test the kernel/cokernel bookkeeping on seeded random chains."""
    samples = exact_int(samples, "samples")
    window = exact_int(window, "window")
    seed = exact_int(seed, "seed")
    if samples < 1:
        raise LampkError(f"samples must be >= 1, got {samples}")
    if window < 0:
        raise LampkError(f"window must be >= 0, got {window}")
    what = f"a pv-check of {samples} samples at window {window}"
    check_budget(what, samples * (2 * window + 1), MAX_SAMPLED_POSITIONS, "sampled positions")
    check_budget(what, 20 * window, zchain.MAX_WITNESS_TERMS, "witness entries")
    rng = random.Random(seed)
    positions = window_range(window)
    failed = 0
    for _ in range(samples):
        chain = random_chain(rng, group, positions)

        # Kernel: invariance happens exactly on multiples of the empty word.
        expected_invariant = all(w.is_empty for w in chain)
        computed = zchain.alpha(chain) == chain
        if computed != expected_invariant or zchain.is_invariant(chain) != computed:
            failed += 1
        constant = ZChain.of(EMPTY_WORD, rng.randint(-9, 9))
        if not zchain.is_invariant(constant):
            failed += 1

        # Cokernel: coboundaries die, and adding one changes no class.
        m = random_chain(rng, group, positions)
        coboundary = m - zchain.alpha(m)
        if zchain.coinvariant_class(coboundary):
            failed += 1
        if zchain.coinvariant_class(chain + coboundary) != zchain.coinvariant_class(chain):
            failed += 1

        # Section: canonical words are fixed by the class map.
        rep, _ = canonicalize(next(iter(m), EMPTY_WORD))
        if zchain.coinvariant_class(ZChain.of(rep)) != ZChain.of(rep):
            failed += 1

        # Exact splitting identity.
        witness, canonical = zchain.decompose(chain)
        if (witness - zchain.alpha(witness)) + canonical != chain:
            failed += 1
        if witness.coeff(EMPTY_WORD) != 0:
            failed += 1
    return PVReport(group.name, samples, window, seed, failed)
