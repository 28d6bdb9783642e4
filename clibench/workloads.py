"""The four workloads, one round at a time.

A round is a fixed list of CLI invocations whose make-up never changes;
the round's random generator (seeded from the workload seed and the round
number) picks the concrete inputs and the order.  Each invocation carries
the check for its output and, for the known faults, the name of the fault:
those fail on every round today and count as failed, never as incorrect.
"""

from __future__ import annotations

import json
import random
from typing import Callable, NamedTuple

import checks
from checks import CATALOG, add_term, chain_sub_shift, chain_to_json, chain_window, shift_word

COEFFS = tuple(c for c in range(-9, 10) if c)


class Op(NamedTuple):
    argv: list  # arguments after ``python -m lampk.cli``
    check: Callable  # check(code, stdout, stderr) -> reason or None
    fault: str | None = None  # known fault this invocation reproduces


def _json(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def random_word(rng: random.Random, r: int, lo: int, width: int):
    """Nonempty word of at most four letters from 1..r-1, with support in
    [lo, lo + width)."""
    k = rng.randint(1, min(4, width))
    return tuple(sorted((lo + p, rng.randint(1, r - 1)) for p in rng.sample(range(width), k)))


def random_chain(rng, r: int, terms: int, width: int, offset_max: int) -> dict:
    """Sum of random words, each inside a window of the given width placed
    at an offset in [-offset_max, offset_max]."""
    chain = {}
    for _ in range(terms):
        lo = rng.randint(-offset_max, offset_max)
        add_term(chain, random_word(rng, r, lo, width), rng.choice(COEFFS))
    return chain


def livsic_op(rng, group: str, window: int, coboundary: bool, terms: int = 6) -> Op:
    """livsic on a chain of the given window with a known answer.

    A coboundary is m - shift(m) with m inside a window one shorter; a
    non-coboundary adds one word, whose class is nonzero.  The horizon is
    pinned at 2w - 1 for the chain's actual window w, the period bound the
    de Bruijn argument proves sufficient.
    """
    r = len(CATALOG[group][1])
    lo = rng.randint(-3, 3)
    chain = {}
    while not chain:  # the random terms of m may cancel to zero
        m = random_chain(rng, r, terms, window - 1, 0)
        chain = chain_sub_shift({shift_word(w, lo): c for w, c in m.items()}, 1)
        if not coboundary:
            word = random_word(rng, r, lo, window)
            add_term(chain, word, rng.choice((-2, -1, 1, 2)))
    horizon = 2 * chain_window(chain) - 1
    argv = ["livsic", "--group", group, "--fn", _json(chain_to_json(chain)),
            "--max-period", str(horizon)]
    return Op(argv, checks.livsic(group, chain, coboundary, horizon))


# --------------------------------------------------------------- rounds

# Fifteen invocations a round (25 in orbit-scan): with whole rounds the
# median and the 90th percentile then fall inside a block of one kind of
# invocation, not on the edge between two kinds.
CERTIFICATE_LADDER = (
    ("C2", 5), ("C2", 6), ("C2", 6), ("C2", 6), ("C2", 7),
    ("C3", 4), ("C3", 4), ("S3", 4), ("S3", 4), ("klein4", 3),
    ("D4", 3), ("Q8", 3), ("S4", 3), ("C5", 3), ("A5", 3),
)


def certificate_round(rng: random.Random) -> list:
    ops = [
        Op(["claim-check", "--group", g, "--levels", str(n)], checks.claim_check(g, n))
        for g, n in CERTIFICATE_LADDER
    ]
    rng.shuffle(ops)
    return ops


def _cylinder_op(rng, group: str, trivial: int, fixed: int) -> Op:
    r = len(CATALOG[group][1])
    lo = rng.randint(-20, 20)
    positions = rng.sample(range(lo, lo + trivial + fixed + 4), trivial + fixed)
    spec = {p: 0 for p in positions[:trivial]}
    spec.update({p: rng.randint(1, r - 1) for p in positions[trivial:]})
    argv = ["cylinder-expand", "--group", group, "--spec", _json({str(p): v for p, v in spec.items()})]
    return Op(argv, checks.cylinder_expand(group, spec))


def _decompose_op(rng, group: str, terms: int) -> Op:
    """Words at offsets spread evenly over [-50, 50], in random order, so
    the telescoping work (the sum of the offsets' sizes) is the same for
    every seed."""
    r = len(CATALOG[group][1])
    offsets = [-50 + 100 * i // (terms - 1) for i in range(terms)]
    rng.shuffle(offsets)
    chain = {}
    for lo in offsets:
        add_term(chain, random_word(rng, r, lo, 6), rng.choice(COEFFS))
    argv = ["decompose", "--group", group, "--fn", _json(chain_to_json(chain))]
    return Op(argv, checks.decompose(group, chain))


def _pv_op(rng, group: str, samples: int, window: int) -> Op:
    seed = rng.randrange(1 << 30)
    argv = ["pv-check", "--group", group, "--samples", str(samples),
            "--window", str(window), "--seed", str(seed)]
    return Op(argv, checks.pv_check(group, samples, window, seed))


def chains_round(rng: random.Random) -> list:
    ops = [
        _cylinder_op(rng, "C2", 6, 2),
        _cylinder_op(rng, "C2", 8, 1),
        _cylinder_op(rng, "C2", 10, 1),
        _cylinder_op(rng, "C2", 11, 0),
        _cylinder_op(rng, "C3", 6, 1),
        _cylinder_op(rng, "C3", 7, 0),
        _cylinder_op(rng, "C3", 8, 0),
        _decompose_op(rng, "C2", 100),
        _decompose_op(rng, "C2", 160),
        _decompose_op(rng, "C3", 120),
        _decompose_op(rng, "C3", 220),
        _decompose_op(rng, "klein4", 120),
        _decompose_op(rng, "klein4", 180),
        _pv_op(rng, "C2", 200, 4),
        _pv_op(rng, "C3", 150, 3),
    ]
    rng.shuffle(ops)
    return ops


# The two horizon reproducers (ROADMAP item 3), run at the default horizon.
# Neither is a coboundary, yet both are reported with vanishing orbit sums.
LIVSIC_REPRODUCERS = (
    ("C2", {((-6, 1),): 1, ((-4, 1), (-3, 1)): -2, ((-5, 1), (-3, 1)): -1,
            ((-6, 1), (-4, 1), (-3, 1)): 2}),
    ("C2", {((0, 1), (1, 1), (3, 1)): 1, ((0, 1), (2, 1), (3, 1)): -1}),
)


def orbit_scan_round(rng: random.Random) -> list:
    ops = [livsic_op(rng, "C2", w, True) for w in (3, 4, 5, 5, 6, 6)]
    ops += [livsic_op(rng, "C3", w, True) for w in (3, 4, 4)]
    ops += [livsic_op(rng, "klein4", w, True) for w in (3, 4)]
    ops += [livsic_op(rng, g, w, False)
            for g, w in (("C2", 5), ("C2", 6), ("C3", 4), ("klein4", 3))]
    for group, chain in LIVSIC_REPRODUCERS:
        argv = ["livsic", "--group", group, "--fn", _json(chain_to_json(chain))]
        ops.append(Op(argv, checks.livsic(group, chain, False, None), "livsic-default-horizon"))
    for group, n in (("C2", 11), ("C3", 6), ("klein4", 5)):
        ops.append(Op(["orbits", "--group", group, "--max-len", str(n)],
                      checks.orbit_words(group, n, "words")))
    for group, n in (("S3", 6), ("D4", 4)):
        ops.append(Op(["k0-basis", "--group", group, "--max-len", str(n)],
                      checks.orbit_words(group, n, "basis")))
    for group, n in (("C2", 14), ("S3", 7), ("A4", 5)):
        ops.append(Op(["trace-image", "--group", group, "--level", str(n)],
                      checks.trace_image(group, n)))
    rng.shuffle(ops)
    return ops


# Malformed inputs that must end in exit 1 with a JSON error on stderr.
MALFORMED = (
    (["cylinder-expand", "--group", "C2", "--spec", '{"a":0}'], "spec-key-traceback"),
    (["decompose", "--group", "C2", "--fn", '[{"word":{"entries":{"0":1}},"coeff":"1.5"}]'],
     "coeff-traceback"),
    (["livsic", "--group", "C2", "--fn", '[{"word":{"entries":{"0":7}},"coeff":1}]'],
     "irrep-index-accepted"),
)

SMALL_GROUPS = ("C2", "C3", "C4", "klein4", "S3", "D4", "Q8", "A4", "S4", "A5")
ABELIAN = ("C2", "C3", "C4", "klein4")


def cli_cold_round(rng: random.Random) -> list:
    g = rng.choice(SMALL_GROUPS)
    a = rng.choice(ABELIAN)
    other = rng.choice(SMALL_GROUPS)
    r = len(CATALOG[g][1])
    ra = len(CATALOG[a][1])
    word = random_word(rng, r, rng.randint(-5, 5), 4)
    small = random_chain(rng, ra, 3, 3, 5)
    spec = {rng.randint(-3, 3) + 2 * i: rng.randint(0, ra - 1) for i in range(3)}
    n = rng.randint(1, 3)
    ops = [
        Op(["fingerprint", "--group", g], checks.fingerprint(g)),
        Op(["classify", "--group", g, "--other", other], checks.classify(g, other)),
        Op(["orbits", "--group", g, "--max-len", str(n)], checks.orbit_words(g, n, "words")),
        Op(["k0-basis", "--group", g, "--max-len", str(n)], checks.orbit_words(g, n, "basis")),
        Op(["k1", "--group", g], checks.k1()),
        Op(["claim-check", "--group", a, "--levels", "2"], checks.claim_check(a, 2)),
        _pv_op(rng, a, 10, 2),
        Op(["trace", "--group", g, "--word", _json({str(p): v for p, v in word})],
           checks.trace(g, word)),
        Op(["trace-image", "--group", g, "--level", str(n)], checks.trace_image(g, n)),
        Op(["decompose", "--group", a, "--fn", _json(chain_to_json(small))],
           checks.decompose(a, small)),
        livsic_op(rng, a, 2, rng.random() < 0.5, terms=2),
        Op(["cylinder-expand", "--group", a, "--spec", _json({str(p): v for p, v in spec.items()})],
           checks.cylinder_expand(a, spec)),
    ]
    ops += [Op(argv, checks.domain_error(), fault) for argv, fault in MALFORMED]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "certificate": certificate_round,
    "chains": chains_round,
    "orbit-scan": orbit_scan_round,
    "cli-cold": cli_cold_round,
}
