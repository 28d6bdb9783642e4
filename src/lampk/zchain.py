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

from .errors import LampkError, check_budget, exact_int
from .grouprep import GroupRepData
from .shiftwords import Word, _trusted_word, canonicalize, shift


class ZChain:
    """Finite integer combination of words; coefficients arbitrary ints.

    Zero coefficients are never stored, so equal dicts are equal chains.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, terms=()):
        """The sum of the (word, coefficient) pairs; repeated words add up."""
        coeffs = {}
        for word, c in terms:
            c = exact_int(c, "coeff")
            if c == 0:
                continue
            total = coeffs.get(word, 0) + c
            if total:
                coeffs[word] = total
            else:
                del coeffs[word]
        self._coeffs = coeffs

    @classmethod
    def of(cls, word: Word, coeff: int = 1) -> ZChain:
        return cls(((word, coeff),))

    def coeff(self, word: Word) -> int:
        return self._coeffs.get(word, 0)

    def items(self):
        return self._coeffs.items()

    def __iter__(self):
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __contains__(self, word) -> bool:
        return word in self._coeffs

    def __add__(self, other):
        if not isinstance(other, ZChain):
            return NotImplemented
        out = dict(self._coeffs)
        for word, c in other._coeffs.items():
            total = out.get(word, 0) + c
            if total:
                out[word] = total
            else:
                del out[word]
        return _trusted_chain(out)

    def __sub__(self, other):
        if not isinstance(other, ZChain):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> ZChain:
        return _trusted_chain({w: -c for w, c in self._coeffs.items()})

    def __mul__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return _trusted_chain({w: n * c for w, c in self._coeffs.items()} if n else {})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZChain):
            return NotImplemented
        return self._coeffs == other._coeffs

    def terms(self):
        """(word, coefficient) pairs in the deterministic word order, made as
        they are taken: only the words are sorted, no list of pairs is built."""
        coeffs = self._coeffs
        for word in sorted(coeffs, key=Word.sort_key):
            yield word, coeffs[word]

    def __repr__(self) -> str:
        if not self._coeffs:
            return "ZChain()"
        body = ", ".join(f"{c}*{w!r}" for w, c in self.terms())
        return f"ZChain<{body}>"


def _trusted_chain(coeffs: dict) -> ZChain:
    """The chain with these coefficients, which must all be nonzero ints:
    no pass through ZChain.__init__."""
    chain = object.__new__(ZChain)
    chain._coeffs = coeffs
    return chain


def alpha(chain: ZChain, k: int = 1) -> ZChain:
    """The shift applied to every basis word (k-fold; k may be negative)."""
    if k == 0:
        return chain
    # the shift is injective on words, so no two terms merge
    return _trusted_chain({shift(w, k): c for w, c in chain.items()})


def is_invariant(chain: ZChain) -> bool:
    """True iff alpha(chain) == chain, i.e. chain is a multiple of [empty]."""
    return all(w.is_empty for w in chain)


# Terms one witness may stand for: a C2 word at offset 2^17 is split in
# about 0.4 s, and `lampk decompose` on it, printing 14 MB of JSON, takes
# about 0.7 to 1.0 s cold at 56 MB peak RSS (Python 3.11 on a 2-core Intel
# Xeon).
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
    return _telescope(chain, 0, 1)


def _telescope(chain: ZChain, step: int, sign: int) -> Decomposition:
    """``decompose`` with each witness word shifted ``step`` more places and
    each witness coefficient multiplied by ``sign``: step 1 and sign -1 give
    the witness -alpha(m) in one pass, with no chain m built first."""
    check_budget(
        "splitting the chain",
        sum(abs(word.min_support or 0) for word in chain),
        MAX_WITNESS_TERMS, "witness terms",
    )
    split = [(canonicalize(word), coeff) for word, coeff in chain.items()]
    witness = ZChain(
        (shift(rep, j + step), -sign * coeff if offset > 0 else sign * coeff)
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
# (65 536 terms) expands in about 0.15 s, and `lampk cylinder-expand` on it,
# printing 15 MB of JSON, takes about 0.6 to 0.8 s cold at 41 MB peak RSS
# (Python 3.11 on a 2-core Intel Xeon).
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
    the induction map, as the appended d_sigma [p_sigma] sum to [1].  A
    negative or out-of-range index, a position given twice, or more than
    MAX_CYLINDER_TERMS terms (r^k for k trivial pins) raise before any term
    is built.
    """
    r = group.num_irreps
    pins = sorted(pins)
    for i, (pos, idx) in enumerate(pins):
        if idx < 0:
            raise LampkError(f"irrep index must be >= 0, got {idx}")
        if idx >= r:
            raise LampkError(f"constraint value {idx} out of range for {group.name}")
        if i and pins[i - 1][0] == pos:
            raise LampkError(f"duplicate position {pos} in word entries")
    check_budget(
        f"expanding the trivial pins of a {group.name} cylinder",
        lambda k: r**k, MAX_CYLINDER_TERMS, "terms", steps=sum(i == 0 for _, i in pins),
    )
    # Words are extended pin by pin, left to right, so their entries come
    # out sorted and every word shares its (position, index) pairs.
    terms = [((), 1)]
    for pos, idx in pins:
        choices = (
            [(((pos, idx),), 1)] if idx
            else [((), 1)] + [(((pos, g),), -d) for g, d in enumerate(group.dims) if g]
        )
        terms = [(items + entry, w * v) for items, w in terms for entry, v in choices]
    # Each choice of letters is a distinct word with a nonzero weight, so
    # the terms need no merging.
    return _trusted_chain({_trusted_word(items): w for items, w in terms})
