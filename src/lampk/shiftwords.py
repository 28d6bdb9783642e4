"""Finite-support words over the irrep alphabet and their shift orbits.

A word maps integer positions to irrep indices; position values are always
nonzero (the trivial index 0 means "unconstrained" and is never stored), so
the empty word is the base point.  The shift moves support to the right and
every nonempty orbit contains exactly one word whose support starts at 0;
that word is the canonical orbit representative.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain, product
from typing import Iterable

from .errors import LampkError, check_budget, exact_int, quoted
from .grouprep import GroupRepData


class Word:
    """Immutable finite map position -> irrep index (values >= 1)."""

    __slots__ = ("_items",)

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        cleaned = {}
        for pos, idx in items:
            pos, idx = exact_int(pos, "word position"), exact_int(idx, "word entry")
            if idx == 0:
                continue
            if idx < 0:
                raise LampkError(f"irrep index must be >= 0, got {idx}")
            if pos in cleaned:
                raise LampkError(f"duplicate position {pos} in word entries")
            cleaned[pos] = idx
        self._items = tuple(sorted(cleaned.items()))

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return self._items

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def min_support(self) -> int | None:
        return self._items[0][0] if self._items else None

    @property
    def max_support(self) -> int | None:
        return self._items[-1][0] if self._items else None

    def window_length(self) -> int:
        """Length of the support window [min, max]; 0 for the empty word."""
        if not self._items:
            return 0
        return self._items[-1][0] - self._items[0][0] + 1

    def sort_key(self) -> tuple:
        """Total order: window length, then index vector, then position.

        The key is flat, (L, hi + 1 - p0, i0, hi + 1 - p1, i1, ..., lo) over
        the entries (p, i) of the window [lo, hi] of length L.  The index
        vector is compared through its nonzero entries, with no dense vector
        built: at the first (hi + 1 - p, i) pair that differs, an entry
        further left has the larger offset and is a nonzero where the other
        vector has 0, so it sorts later.  At equal length both pair lists end
        at the window's right end, so neither is a proper prefix of the
        other, and lo is only compared with lo.  Each offset lies in [1, L],
        so in a window up to 256 long it is one of the small ints CPython
        keeps cached, and no new int object is made for it.  Flat, the key
        is cheaper to build and to compare than nested pairs: the 6 561
        words of a C3 cylinder with 8 trivial pins sort in about 9 to 16 ms,
        against 23 to 36 ms (Python 3.11 on an Intel Xeon).
        """
        items = self._items
        if not items:
            return (0, 0)
        lo = items[0][0]
        end = items[-1][0] + 1
        key = [end - lo]
        for p, idx in items:
            key += (end - p, idx)
        key.append(lo)
        return tuple(key)

    def is_canonical(self) -> bool:
        return not self._items or self._items[0][0] == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        if not self._items:
            return "Word()"
        body = ", ".join(f"{p}: {i}" for p, i in self._items)
        return f"Word({{{body}}})"


EMPTY_WORD = Word()


def _trusted_word(items: tuple) -> Word:
    """The word with these entries, which must already be sorted by
    distinct position with indices >= 1: no pass through Word.__init__."""
    word = object.__new__(Word)
    word._items = items
    return word


def _product_words(choices):
    """The words that take one choice at each place of one window, in word
    order and sharing their entries.  ``choices`` lists each place p from
    left to right as its letters ((p, g),) by ascending g, after any ``()``
    (p left out) at an inner place; the first and last hold letters only.
    All these words fill the window, and ``Word.sort_key`` orders words of
    one window by their index vectors, place by place, with ``()`` as index
    0 below every letter: that is ``itertools.product`` order.
    """
    return map(_trusted_word, map(tuple, map(chain.from_iterable, product(*choices))))


def check_alphabet(group: GroupRepData, words: Iterable[Word]) -> None:
    """Raise LampkError unless every entry of these words indexes an irrep
    of the group."""
    r = group.num_irreps
    for word in words:
        for _, idx in word.entries:
            if idx >= r:
                name = quoted(group.name, str)
                raise LampkError(f"word entry {idx} out of range for {name} ({r} irreps)")


def shift(word: Word, k: int) -> Word:
    """Translate the word k steps: the entry at p moves to p + k."""
    if type(k) is not int:  # the common case makes no call
        k = exact_int(k, "shift")
    if k == 0 or word.is_empty:
        return word
    # Translation keeps positions distinct and sorted and entries >= 1.
    return _trusted_word(tuple([(p + k, idx) for p, idx in word.entries]))


def canonicalize(word: Word) -> tuple[Word, int]:
    """Orbit representative and the offset putting it back in place.

    Returns (rep, offset) with shift(rep, offset) == word; rep is the unique
    orbit member whose support starts at 0 (the empty word for itself).
    Words are shift-equivalent exactly when their reps coincide.
    """
    if word.is_empty:
        return word, 0
    offset = word.min_support
    return shift(word, -offset), offset


def canonical_count(group: GroupRepData, max_len: int) -> int:
    """Closed-form number of canonical words with support in [0, max_len)."""
    max_len = exact_int(max_len, "max_len")
    r = group.num_irreps
    total = 1 + (r - 1)
    for length in range(2, max_len + 1):
        total += (r - 1) ** 2 * r ** (length - 2)
    return total


# Words one enumeration may build: A5 at max_len 7 (62 501 words, 8.2 MB
# of JSON) is listed and printed by the CLI in about 0.3 to 0.4 s cold at
# 24 MB peak RSS, and C2 at max_len 16 (32 769 words) in about 0.25 to
# 0.3 s at 20 MB (Python 3.11 on a 2-core Intel Xeon).
MAX_CANONICAL_WORDS = 1 << 16


def enumerate_canonical(group: GroupRepData, max_len: int) -> list[Word]:
    """All canonical words with support inside [0, max_len), in word order.

    The empty word, then for each length L the words with nontrivial first
    and last letter and free interior, listed by ``_product_words`` (which
    says why that is word order).  More than MAX_CANONICAL_WORDS words
    raise BudgetError before any is built.
    """
    max_len = exact_int(max_len, "max_len")
    if max_len < 1:
        raise LampkError(f"max_len must be >= 1, got {max_len}")
    check_budget(
        f"listing the words of {quoted(group.name, str)} at max_len {max_len}",
        lambda n: canonical_count(group, n), MAX_CANONICAL_WORDS,
        "canonical words", steps=max_len,
    )
    letters = [tuple([((p, g),) for g in range(1, group.num_irreps)]) for p in range(max_len)]
    words = [EMPTY_WORD, *_product_words([letters[0]])]
    for length in range(2, max_len + 1):
        inner = [((), *letters[p]) for p in range(1, length - 1)]
        words.extend(_product_words([letters[0], *inner, letters[length - 1]]))
    return words
