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

from typing import NamedTuple

from .errors import check_budget
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
# about 0.3 s and printed (12 MB of JSON) by the CLI in about 3.5 s.
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
