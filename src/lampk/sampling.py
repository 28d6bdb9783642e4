"""Seeded random words and chains for property checks and fuzzing."""

from __future__ import annotations

import random

from .grouprep import GroupRepData
from .shiftwords import Word
from .zchain import ZChain


def random_word(
    rng: random.Random,
    group: GroupRepData,
    positions: range,
    max_entries: int = 4,
) -> Word:
    """Word with support drawn from ``positions`` (possibly empty)."""
    k = rng.randint(0, min(max_entries, len(positions)))
    support = rng.sample(positions, k)
    r = group.num_irreps
    return Word((p, rng.randint(1, r - 1)) for p in support)


def random_chain(
    rng: random.Random,
    group: GroupRepData,
    positions: range,
    max_terms: int = 5,
    max_coeff: int = 9,
) -> ZChain:
    """Chain of up to max_terms random words, coefficients in [-max_coeff, max_coeff] \\ {0}."""
    coeffs = [c for c in range(-max_coeff, max_coeff + 1) if c]
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        # drawn before the word: seeded samples depend on this order
        coeff = rng.choice(coeffs)
        terms.append((random_word(rng, group, positions), coeff))
    return ZChain(terms)


def window_range(window: int) -> range:
    """Symmetric support window [-window, window]."""
    return range(-window, window + 1)
