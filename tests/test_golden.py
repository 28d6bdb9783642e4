"""Golden transcript: fixed CLI invocations replayed through ``cli.main``.

``tests/golden/transcript.json`` holds, for each invocation, the exit
code, stdout with the timing field ``elapsed_ms`` masked, and stderr when
the exit code is 1 (the JSON domain error).  The replay must reproduce
them byte for byte, so a change that claims identical output can show it.

Record a new transcript only when a change to the output is intended, and
say so where the change is described:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from lampk.cli import main

TRANSCRIPT = Path(__file__).with_name("golden") / "transcript.json"

ELAPSED = re.compile(r'"elapsed_ms": \d+')


def _chain(*terms) -> str:
    """Inline chain JSON from (entries, coeff) pairs."""
    return json.dumps(
        [{"word": {"entries": entries}, "coeff": coeff} for entries, coeff in terms],
        separators=(",", ":"),
    )


FAR = "9" * 4300  # one digit short of the interpreter's string limit

CASES = [
    # every subcommand
    ["fingerprint", "--group", "C2"],
    ["fingerprint", "--group", "S4"],
    ["fingerprint", "--group", '{"name": "G6", "order": 6, "dims": [1, 1, 2]}'],
    ["classify", "--group", "C4", "--other", "klein4"],
    ["classify", "--group", "C6", "--other", "S3"],
    ["classify", "--group", "S3", "--other", "D4"],
    ["orbits", "--group", "C2", "--max-len", "3"],
    ["orbits", "--group", "C3", "--max-len", "2", "--format", "table"],
    ["k0-basis", "--group", "S3", "--max-len", "2"],
    ["k0-basis", "--group", "C2", "--max-len", "3", "--format", "table"],
    ["k1", "--group", "A5"],
    ["claim-check", "--group", "C2", "--levels", "5"],
    ["claim-check", "--group", "S3", "--levels", "3"],
    ["claim-check", "--group", "C2", "--levels", "12"],
    ["pv-check", "--group", "C2", "--samples", "20", "--window", "2", "--seed", "9"],
    ["pv-check", "--group", "C3", "--samples", "10"],
    ["trace", "--group", "S3", "--word", '{"0": 2, "1": 1}'],
    ["trace-image", "--group", "Q8", "--level", "2"],
    ["trace-image", "--group", "C2", "--level", "26"],
    ["decompose", "--group", "C2", "--fn", _chain(({"0": 1, "2": 1}, 3), ({"-1": 1}, -2))],
    ["cylinder-expand", "--group", "C2", "--spec", '{"0": 0, "1": 1}'],
    ["cylinder-expand", "--group", "C4", "--spec", '{"-1": 0, "100000000": 2}'],
    # livsic: a bounded check, coboundaries, and the two horizon reproducers
    ["livsic", "--group", "C3", "--fn", _chain(({"0": 1}, 1)), "--max-period", "6"],
    ["livsic", "--group", "C2", "--fn", _chain(({"0": 1}, 1), ({"1": 1}, -1))],
    ["livsic", "--group", "C3", "--fn",
     _chain(({"0": 1, "1": 2}, 2), ({"1": 1, "2": 2}, -2), ({"3": 2}, 1), ({"4": 2}, -1))],
    ["livsic", "--group", "klein4", "--fn",
     _chain(({"0": 3}, 1), ({"1": 3}, -1), ({"0": 1, "1": 2}, 2), ({"1": 1, "2": 2}, -2))],
    ["livsic", "--group", "C2", "--fn",
     _chain(({"-6": 1}, 1), ({"-4": 1, "-3": 1}, -2), ({"-5": 1, "-3": 1}, -1),
            ({"-6": 1, "-4": 1, "-3": 1}, 2))],
    ["livsic", "--group", "C2", "--fn",
     _chain(({"0": 1, "1": 1, "3": 1}, 1), ({"0": 1, "2": 1, "3": 1}, -1))],
    ["livsic", "--group", "C2", "--fn", _chain(({"100000000": 1}, 1))],
    # malformed input: domain errors (exit 1) and usage errors (exit 2)
    ["cylinder-expand", "--group", "C2", "--spec", '{"a": 0}'],
    ["cylinder-expand", "--group", "C2", "--spec", '{"0": true, "1": 1.9}'],
    ["decompose", "--group", "C2", "--fn", _chain(({"0": 1}, "1.5"))],
    ["decompose", "--group", "C2", "--fn", _chain(({"0": 1}, 1.5))],
    ["decompose", "--group", "S3", "--fn", "[]"],
    ["livsic", "--group", "C2", "--fn", _chain(({"0": 7}, 1))],
    ["pv-check", "--group", "C2", "--samples", "-5"],
    ["pv-check", "--group", "C2", "--samples", "5", "--window", "-3"],
    ["fingerprint", "--group", "nope"],
    ["trace-image", "--group", "C2", "--level", "-1"],
    ["trace", "--group", "C2", "--word", "not json"],
    ["orbits", "--group", "C2"],
    ["decompose", "--group", "C2", "--fn", '{"%s": 1}' % ("7" * 5000)],
    # oversized input: refused before the work starts
    ["livsic", "--group", "C2", "--fn", "[]", "--max-period", "40"],
    ["orbits", "--group", "C3", "--max-len", "16"],
    ["claim-check", "--group", "C2", "--levels", "5000"],
    ["claim-check", "--group", "C2", "--levels", "20000"],
    ["claim-check", "--group", "C2", "--levels", "200000"],
    ["decompose", "--group", "C2", "--fn", _chain(({"100000000": 1}, 1))],
    ["pv-check", "--group", "C2", "--samples", "100000000"],
    ["pv-check", "--group", "C2", "--samples", "1", "--window", "100000000"],
    ["fingerprint", "--group", "C30000000"],
    ["fingerprint", "--group", "C" + "7" * 5000],
    ["trace-image", "--group", "C2", "--level", "14285"],
    ["trace-image", "--group",
     '{"name": "big", "order": 1%s1, "dims": [1, 1%s]}' % ("0" * 2999, "0" * 1500),
     "--level", "20000"],
    ["decompose", "--group", "C2", "--fn", '[{"word": {"entries": {"0": 1}}, "coeff": %s}]'
     % ("9" * 5001)],
    ["livsic", "--group", "C2", "--fn", _chain(({"-" + FAR: 1, FAR: 1}, 1))],
    # selfcheck stopped by its time budget
    ["selfcheck", "--budget", "0"],
]


def replay(argv: list) -> dict:
    """One invocation through cli.main in process, as the transcript holds it.

    The digit limit is pinned to its default, which some refusals state.
    """
    out, err = io.StringIO(), io.StringIO()
    old_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.set_int_max_str_digits(old_digits)
    return {
        "argv": list(argv),
        "code": code,
        "stdout": ELAPSED.sub('"elapsed_ms": "*"', out.getvalue()).split("\n"),
        "stderr": err.getvalue() if code == 1 else None,
    }


def _load() -> list:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_transcript_covers_the_cases():
    assert [entry["argv"] for entry in _load()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)))
def test_golden_replay(index):
    expected = _load()[index]
    assert replay(expected["argv"]) == expected


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    transcript = [replay(argv) for argv in CASES]
    TRANSCRIPT.write_text(
        json.dumps(transcript, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"recorded {len(transcript)} invocations to {TRANSCRIPT}")
