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

from itertools import chain as concat, pairwise, product, repeat, starmap
from math import prod
from typing import NamedTuple

from .errors import LampkError, check_budget, exact_int, quoted
from .grouprep import GroupRepData
from .shiftwords import EMPTY_WORD, Word, _product_words, _trusted_word, canonicalize, shift


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
        """(word, coefficient) pairs in the deterministic word order
        (``Word.sort_key``), made as they are taken once the words, and
        only the words, are sorted.  A chain the CLI prints is never sorted
        here: it is written from the Terms it is built from."""
        coeffs = self._coeffs
        for word in sorted(coeffs, key=Word.sort_key):
            yield word, coeffs[word]

    def __repr__(self) -> str:
        if not self._coeffs:
            return "ZChain()"
        body = ", ".join(f"{c}*{w!r}" for w, c in self.terms())
        return f"ZChain<{body}>"


class Terms:
    """A chain's (word, coefficient) pairs in word order, made as they are
    taken, and ``largest``, the largest magnitude of any position or
    coefficient among them (0 for no terms), known before the first term:
    a writer can refuse a chain it cannot print with no term made.  The
    pairs can be taken once; ``dict`` of them is the chain's coefficients,
    in word order, since no word comes twice."""

    __slots__ = ("_pairs", "largest")

    def __init__(self, pairs, largest: int):
        self._pairs = pairs
        self.largest = largest

    def __iter__(self):
        return iter(self._pairs)


def _trusted_chain(coeffs: dict) -> ZChain:
    """The chain with these coefficients, which must all be nonzero ints:
    no pass through ZChain.__init__."""
    chain = object.__new__(ZChain)
    chain._coeffs = coeffs
    return chain


def alpha(chain: ZChain, k: int = 1) -> ZChain:
    """The shift applied to every basis word (k-fold; k may be negative)."""
    k = exact_int(k, "shift")
    if k == 0:
        return chain
    # the shift is injective on words, so no two terms merge
    return _trusted_chain({shift(w, k): c for w, c in chain.items()})


def is_invariant(chain: ZChain) -> bool:
    """True iff alpha(chain) == chain, i.e. chain is a multiple of [empty]."""
    return all(w.is_empty for w in chain)


# Entries one witness may stand for, counted over its words: a one-entry
# C2 word at offset 2^17 is split, in word order, in about 0.2 s, and
# `lampk decompose` on it, printing 14 MB of JSON as the witness terms are
# made, takes about 0.25 to 0.45 s cold, and on a 16-entry word at 2^13
# about 0.1 to 0.18 s, both at 14.4 MB peak RSS (Python 3.11, 2-core Xeon).
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
    The witness has at most sum |offset| terms, of at most
    sum |offset| * len(entries) entries; more than MAX_WITNESS_TERMS
    entries raise BudgetError before any term is built.
    """
    witness, canonical = _telescope(chain, 0, 1)
    return Decomposition(_trusted_chain(dict(witness)), _trusted_chain(dict(canonical)))


def _telescope(chain: ZChain, step: int, sign: int) -> tuple[Terms, Terms]:
    """``decompose``, with both chains as their Terms, and with each witness
    word shifted ``step`` more places and each witness coefficient
    multiplied by ``sign``: step 1 and sign -1 give the witness -alpha(m) in
    one pass, with no chain m built first.

    Everything but the witness terms is done before this returns: the
    budget check, the grouping by orbit, the canonical coefficients, and
    the runs of the witness.  Both chains come in word order, with no
    merging and no sort of their words: only the orbit representatives are
    sorted, as the words of one orbit differ only in their position, the
    last place of ``Word.sort_key``, so each orbit's witness words follow
    its representative in ascending position.  The witness coefficient at
    shift(rep, t + step) is sign times a running sum over t: shift(rep, k)
    adds its coefficient at t = k and removes it at 0, and each stretch
    [a, b) of one nonzero sum is a run.
    """
    check_budget(
        "splitting the chain",
        sum(abs(word.min_support or 0) * len(word.entries) for word in chain),
        MAX_WITNESS_TERMS, "witness entries",
    )
    orbits = {}  # representative -> {offset: summed coefficient}
    for word, coeff in chain.items():
        rep, offset = canonicalize(word)
        offsets = orbits.setdefault(rep, {})
        offsets[offset] = offsets.get(offset, 0) + coeff
    runs, canonical, largest, canonical_largest = [], {}, 0, 0
    for rep in sorted(orbits, key=Word.sort_key):
        diffs = orbits[rep]
        total = sum(diffs.values())
        if total:
            canonical[rep] = total
            # rep starts at 0, so its last position is its largest one
            canonical_largest = max(canonical_largest, rep.max_support or 0, abs(total))
        diffs[0] = diffs.get(0, 0) - total
        running = 0
        for t, end in pairwise(sorted(diffs)):
            running += diffs[t]
            if running:  # rep is not empty: the empty word has offset 0 only
                a, b, coeff = t + step, end + step, sign * running
                runs.append((rep, a, b, coeff))
                # the run's positions go from a to rep's last one plus b - 1
                largest = max(largest, abs(a), abs(rep.entries[-1][0] + b - 1), abs(coeff))
    witness = Terms(concat.from_iterable(starmap(_run_terms, runs)), largest)
    return witness, Terms(canonical.items(), canonical_largest)


def _run_terms(rep: Word, a: int, b: int, coeff: int):
    """The terms (shift(rep, u), coeff) for u in [a, b), in word order,
    made as they are taken: each entry of rep is a range of positions."""
    cols = [zip(range(p + a, p + b), repeat(i)) for p, i in rep.entries]
    return zip(map(_trusted_word, zip(*cols)), repeat(coeff))


def coinvariant_class(chain: ZChain) -> ZChain:
    """Image of the chain in the co-invariants, written on canonical words.

    Vanishes exactly on chains of the form m - alpha(m); acts as the
    identity on chains already supported on canonical words.  Each word
    maps straight to its orbit representative, with no witness built.
    """
    return ZChain((canonicalize(word)[0], coeff) for word, coeff in chain.items())


# Terms one projection expansion may build: C2 with 16 trivial pins
# (65 536 terms) expands, in word order, in about 0.14 s, and `lampk
# cylinder-expand` on it, printing 15 MB of JSON as the terms are made,
# takes about 0.35 to 0.5 s cold at 14 to 14.6 MB peak RSS (Python 3.11 on
# a 2-core Intel Xeon).
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
    the induction map, as the appended d_sigma [p_sigma] sum to [1].  The
    chain is built from ``projection_terms``, which says what is refused.
    """
    return _trusted_chain(dict(projection_terms(group, pins)))


def projection_terms(group: GroupRepData, pins) -> Terms:
    """The terms of ``projection_chain(group, pins)``, made as they are
    taken.  A position or value that is not an integer, a negative or
    out-of-range index, a position given twice, or more than
    MAX_CYLINDER_TERMS terms (r^k for k trivial pins) raise here, before
    any term is built.  The terms come in word order, block by block
    through ``_product_words``.
    """
    r = group.num_irreps
    pins = sorted(
        (exact_int(pos, "cylinder position"), exact_int(idx, "cylinder value"))
        for pos, idx in pins
    )
    for i, (pos, idx) in enumerate(pins):
        if idx < 0:
            raise LampkError(f"irrep index must be >= 0, got {idx}")
        if idx >= r:
            raise LampkError(f"constraint value {idx} out of range for {quoted(group.name, str)}")
        if i and pins[i - 1][0] == pos:
            raise LampkError(f"duplicate position {pos} in word entries")
    trivial = sum(i == 0 for _, i in pins)
    check_budget(
        f"expanding the trivial pins of a {quoted(group.name, str)} cylinder",
        lambda k: r**k, MAX_CYLINDER_TERMS, "terms", steps=trivial,
    )
    from heapq import merge

    # Each pin's letters and weights as a window's end, and as an inner
    # place, where a trivial pin may also be left out with weight 1.
    ends = [
        ((((pos, idx),),), (1,)) if idx
        else (tuple([((pos, g),) for g in range(1, r)]), tuple([-d for d in group.dims[1:]]))
        for pos, idx in pins
    ]
    inners = [end if idx else (((), *end[0]), (1, *end[1])) for end, (_, idx) in zip(ends, pins)]
    # The words whose first and last letters sit at pins f and l form a
    # block of one window, listed by ``_product_words``; no pin before f or
    # after l holds a letter, so f is at most the first fixed pin and l at
    # least the last one.  Each word is built once, with a nonzero weight.
    fixed = [i for i, (_, idx) in enumerate(pins) if idx]
    blocks = {}
    for f in range(fixed[0] + 1 if fixed else len(pins)):
        for l in range(max(f, fixed[-1] if fixed else 0), len(pins)):
            places = [ends[f], *inners[f + 1:l], ends[l]] if l > f else [ends[f]]
            letters, weights = zip(*places)
            block = zip(_product_words(letters), map(prod, product(*weights)))
            blocks.setdefault(pins[l][0] - pins[f][0], []).append(block)
    # Blocks of one window length are merged.  With no fixed pin, the empty
    # word (every pin left out) comes first.
    merged = [merge(*blocks[span], key=lambda t: t[0].sort_key()) for span in sorted(blocks)]
    terms = concat(*merged) if fixed else concat(((EMPTY_WORD, 1),), *merged)
    if not pins:
        return Terms(terms, 1)
    # The block that spans every pin holds letters at the first and last
    # ones, and a word in it with a largest weight at every trivial pin.
    return Terms(terms, max(abs(pins[0][0]), abs(pins[-1][0]), max(group.dims[1:]) ** trivial))
