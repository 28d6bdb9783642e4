"""Integer chains on words, the shift action, and the orbit splitting.

A ZChain is an element of the free abelian group on words.  The shift acts
basis-wise; its invariants are the multiples of the empty word (the only
finite orbit), and every chain splits uniquely as

    chain = (witness - alpha(witness)) + canonical

with ``canonical`` supported on canonical words.  The splitting is computed
by telescoping each basis word back to its orbit representative, so the
identity holds term-exactly, not just up to equivalence.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import NamedTuple

from .errors import LampkError, check_budget
from .grouprep import GroupRepData
from .shiftwords import Word, canonicalize, shift
from .sparse import SparseIntVector


class ZChain(SparseIntVector):
    """Finite integer combination of words; coefficients arbitrary ints."""

    def terms(self) -> list[tuple[Word, int]]:
        """(word, coefficient) pairs in the deterministic word order."""
        return sorted(self._coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self) -> str:
        if not self._coeffs:
            return "ZChain()"
        body = ", ".join(f"{c}*{w!r}" for w, c in self.terms())
        return f"ZChain<{body}>"


def alpha(chain: ZChain, k: int = 1) -> ZChain:
    """The shift applied to every basis word (k-fold; k may be negative)."""
    if k == 0:
        return chain
    return chain.map_keys(lambda w: shift(w, k))


def is_invariant(chain: ZChain) -> bool:
    """True iff alpha(chain) == chain, i.e. chain is a multiple of [empty]."""
    return all(w.is_empty for w in chain)


# Terms one witness may stand for: a C2 word at offset 2^17 is split in
# about 0.5 s, and `lampk decompose` on it, printing 12 MB of JSON, takes
# about 2.3 s cold (Python 3.11 on an Intel Xeon).
MAX_WITNESS_TERMS = 1 << 17


class Decomposition(NamedTuple):
    witness: ZChain
    canonical: ZChain


def decompose(chain: ZChain) -> Decomposition:
    """Split chain as (witness - alpha(witness)) + canonical.

    Each basis word x = shift(s, k) telescopes to its representative s:
    for k > 0, x - s = (alpha - Id)(s + alpha(s) + ... + alpha^(k-1)(s)).
    The witness never touches the empty word (that word is its own
    representative with offset 0), which makes the output deterministic:
    the ambiguity in the witness is exactly the invariants subgroup.
    The witness has at most sum |offset| terms; more than
    MAX_WITNESS_TERMS of them raise BudgetError before any is built.
    """
    check_budget(
        "splitting the chain",
        sum(abs(word.min_support or 0) for word in chain),
        MAX_WITNESS_TERMS, "witness terms",
    )
    split = [(canonicalize(word), coeff) for word, coeff in chain.items()]
    witness = ZChain(
        (shift(rep, j), -coeff if offset > 0 else coeff)
        for (rep, offset), coeff in split
        for j in range(min(offset, 0), max(offset, 0))
    )
    canonical = ZChain((rep, coeff) for (rep, _), coeff in split)
    return Decomposition(witness=witness, canonical=canonical)


def coinvariant_class(chain: ZChain) -> ZChain:
    """Image of the chain in the co-invariants, written on canonical words.

    Vanishes exactly on chains of the form m - alpha(m); acts as the
    identity on chains already supported on canonical words.  Each word
    maps straight to its orbit representative, with no witness built.
    """
    return ZChain((canonicalize(word)[0], coeff) for word, coeff in chain.items())


# Terms one projection expansion may build: C2 with 16 trivial pins
# (65 536 terms) expands in about 0.9 s, and `lampk cylinder-expand` on it,
# printing 13 MB of JSON, takes about 2.4 s cold (Python 3.11 on an Intel
# Xeon).
MAX_CYLINDER_TERMS = 1 << 16


def projection_chain(group: GroupRepData, pins) -> ZChain:
    """Word chain of the projection pinning each position to an irrep.

    A pin to sigma != 0 is the word letter sigma, a minimal projection of
    the M_{d_sigma} block of C*F.  A word leaves 0 unconstrained (the unit),
    and [1] = sum_sigma d_sigma [p_sigma] in K_0(C*F), so a trivial pin
    p_0 = [1] - sum_{sigma != 0} d_sigma [p_sigma] expands with weight 1
    (position left out) or -d_sigma (letter sigma).  Pinning a level tuple
    t at 0, 1, ... gives Phi(t) = word(t) + words with more entries, so Phi
    is unitriangular on the complement basis of ``colimitk``, and it kills
    the induction map, as the appended d_sigma [p_sigma] sum to [1].  More
    than MAX_CYLINDER_TERMS terms (r^k for k trivial pins) raise BudgetError
    before any is built.
    """
    r = group.num_irreps
    pins = list(pins)
    for _, idx in pins:
        if idx >= r:
            raise LampkError(f"constraint value {idx} out of range for {group.name}")
    check_budget(
        f"expanding the trivial pins of a {group.name} cylinder",
        lambda k: r**k, MAX_CYLINDER_TERMS, "terms", steps=sum(i == 0 for _, i in pins),
    )
    choices = [
        [((p, idx), 1)] if idx
        else [(None, 1)] + [((p, g), -d) for g, d in enumerate(group.dims) if g]
        for p, idx in pins
    ]
    return ZChain(
        (Word([e for e, _ in choice if e]), prod([w for _, w in choice]))
        for choice in product(*choices)
    )
