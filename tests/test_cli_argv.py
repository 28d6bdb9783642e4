"""The CLI's argv reader against argparse.

``cli._read_argv`` reads a well-formed argv straight from ``cli.COMMANDS``.
On any argv it must return None, leaving the argv to argparse, or exactly
the namespace ``build_parser().parse_args`` builds: the same names, values,
types and order, compared through ``repr`` so that a NaN equals itself.
"""

import contextlib
import io
import json
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st
from test_cli_fuzz import draw_argv

from lampk.cli import _read_argv, build_parser

TRANSCRIPT = Path(__file__).with_name("golden") / "transcript.json"


def parsed(argv):
    """vars of argparse's namespace, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def read(argv) -> bool:
    """Whether the reader takes argv; where it does, its namespace must be
    argparse's."""
    args = _read_argv(argv)
    if args is None:
        return False
    assert repr(vars(args)) == repr(parsed(argv))
    return True


def test_golden_argv_read_as_argparse_reads_them():
    argvs = [entry["argv"] for entry in json.loads(TRANSCRIPT.read_text(encoding="utf-8"))]
    left = [argv for argv in argvs if not read(argv)]
    # negative values and a missing required flag are argparse's to judge
    assert left == [
        ["pv-check", "--group", "C2", "--samples", "-5"],
        ["pv-check", "--group", "C2", "--samples", "5", "--window", "-3"],
        ["trace-image", "--group", "C2", "--level", "-1"],
        ["orbits", "--group", "C2"],
    ]


@settings(derandomize=True, max_examples=300, deadline=timedelta(seconds=3))
@given(st.randoms(use_true_random=True))
def test_fuzzed_argv_read_as_argparse_reads_them(rng):
    argv = draw_argv(rng)
    note(f"argv = {argv!r}")
    read(argv)


@pytest.mark.parametrize(
    "argv, taken",
    [
        (["pv-check", "--group", "C2", "--samples", "3", "--seed", "-5"], False),
        (["claim-check", "--group", "C2", "--lev", "3"], False),
        (["claim-check", "--group", "C2", "--levels=3"], False),
        (["claim-check", "--group", "C2", "--levels", "3", "--levels", "4"], False),
        (["claim-check", "--group", "C2", "--levels", "3", "--"], False),
        (["claim-check", "--group", "C2", "--levels", "3", "--", "x"], False),
        (["orbits", "--group", "C2", "--max-len", "2", "--format", "xml"], False),
        (["claim-check", "--group", "C2", "--levels", "x"], False),
        (["claim-check", "--group", "C2"], False),
        (["claim-check", "C2", "--levels", "3"], False),
        (["claim-check", "--group", "C2", "--other", "C3"], False),
        ([], False),
        (["-h"], False),
        (["claim-check", "-h"], False),
        (["claim-check", "--group", "-h", "--levels", "3"], False),
        (["selfcheck", "--budget", "nan"], True),
        (["selfcheck", "--budget", " 1e3 "], True),
        (["selfcheck"], True),
        (["claim-check", "--levels", "3", "--group", "C2"], True),
        (["claim-check", "--group", "", "--levels", "٣"], True),
        (["pv-check", "--group", "C2"], True),
        (["livsic", "--group", "C2", "--fn", "[]"], True),
        (["orbits", "--group", "C2", "--max-len", "2", "--format", "table"], True),
    ],
)
def test_edge_cases(argv, taken):
    assert read(argv) == taken
