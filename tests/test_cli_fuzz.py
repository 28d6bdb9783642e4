"""Fuzz of the CLI contract.

Every invocation, however malformed or oversized, must end in exit 0 with
the JSON result, exit 1 with a JSON error on stderr, or exit 2 with a usage
error, never in a traceback or a hang.  Each case draws its argv from a
seeded ``random.Random``, mostly well-formed so that the commands get past
parsing; the cases are derandomized, so every run sees the same ones.
``selfcheck`` is left out: it takes seconds by design.
"""

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import given, note, settings
from hypothesis import strategies as st

from lampk.cli import main

SUBCOMMANDS = {
    "fingerprint": ("--group",),
    "classify": ("--group", "--other"),
    "orbits": ("--group", "--max-len", "--format"),
    "k0-basis": ("--group", "--max-len", "--format"),
    "k1": ("--group",),
    "claim-check": ("--group", "--levels"),
    "pv-check": ("--group", "--samples", "--window", "--seed"),
    "trace": ("--group", "--word"),
    "trace-image": ("--group", "--level"),
    "decompose": ("--group", "--fn"),
    "livsic": ("--group", "--fn", "--max-period"),
    "cylinder-expand": ("--group", "--spec"),
}

HUGE = "9" * 5000  # past the interpreter's default digit limit
GROUPS = ["C2", "C3", "C4", "klein4", "S3", "Q8", "A5",
          '{"name": "g", "order": 6, "dims": [1, 1, 2]}']
BAD_GROUPS = ["C1", "C100000000", "C" + HUGE, "nope", "{", "[1, 2]", '{"name": "g"}',
              '{"name": "g", "order": 5, "dims": [1, 2]}',
              '{"name": "g", "order": "2", "dims": [1, 1]}',
              '{"name": "g", "order": 6, "dims": [1, 1, 2.5]}',
              '{"name": "g", "order": true, "dims": [1, 1]}',
              '{"name": "g", "order": %s, "dims": [1]}' % HUGE]
INTS = ["1", "2", "3", "5"]
BAD_INTS = ["-1", "0", "1000000", str(10**100), str(-(10**100)), "1.5", "true", "", "0x10"]
SCALARS = [0, 1, 2, 3, 7, -1, 10**8, -(10**8), 10**100, 1.5, 2.0, 1e308, True, False,
           None, "", "1", "a", "1.5"]
POSITIONS = ["0", "1", "2", "3", "-1", "-2", "100000000", "-100000000"]
# the last six are keys int() reads that are no plain decimal: as a
# position, each is refused
KEYS = ["0", "1e3", "x", "word", "entries", "coeff", "name", "order", "dims",
        "1_0", " 3 ", "+0", "00", "-0", "\u0661"]
RAW = [
    f'[{{"word": {{"entries": {{"0": 1}}}}, "coeff": {HUGE}}}]',
    f'{{"{HUGE}": 1}}',
    "[" * 100_000,
    "[" * 100_000 + "]" * 100_000,
    '{"0":' * 100_000 + "1" + "}" * 100_000,
]


def junk(rng, depth=0):
    """Any JSON value: scalars, lists and objects, nested a little."""
    kind = rng.random()
    if depth >= 2 or kind < 0.5:
        return rng.choice(SCALARS)
    if kind < 0.75:
        return [junk(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(KEYS): junk(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def entries(rng):
    if rng.random() < 0.8:
        return {rng.choice(POSITIONS): rng.choice((0, 1, 1, 2)) for _ in range(rng.randint(0, 3))}
    return {rng.choice(KEYS + POSITIONS): rng.choice(SCALARS) for _ in range(rng.randint(0, 3))}


def chain(rng):
    return [
        {"word": {"entries": entries(rng)},
         "coeff": rng.choice((1, -1, 2, -3)) if rng.random() < 0.8 else rng.choice(SCALARS)}
        for _ in range(rng.randint(0, 4))
    ]


def value(rng, flag):
    """Mostly a well-formed value for the flag, else a malformed one."""
    good = rng.random() < 0.75
    if flag in ("--group", "--other"):
        return rng.choice(GROUPS if good else BAD_GROUPS + [json.dumps(junk(rng))])
    if flag == "--format":
        return rng.choice(("json", "table") if good else ("xml",))
    if flag in ("--fn", "--word", "--spec"):
        if good:
            return json.dumps(chain(rng) if flag == "--fn" else entries(rng))
        return rng.choice(RAW + [json.dumps(junk(rng))])
    return rng.choice(INTS if good else BAD_INTS)


def draw_argv(rng) -> list:
    command = rng.choice(sorted(SUBCOMMANDS))
    argv = [command]
    for flag in SUBCOMMANDS[command]:
        if rng.random() < 0.9:  # a required flag is left out now and then
            argv += [flag, value(rng, flag)]
    return argv


@settings(derandomize=True, max_examples=200, deadline=timedelta(seconds=3))
@given(st.randoms(use_true_random=True))
def test_every_invocation_ends_in_the_contract(rng):
    argv = draw_argv(rng)
    note(f"argv = {argv!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "table" not in argv:
        json.loads(out.getvalue())
    elif code == 1:
        assert out.getvalue() == ""
        assert set(json.loads(err.getvalue())) == {"error"}
