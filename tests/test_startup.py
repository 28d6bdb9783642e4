"""What importing lampk loads: the CLI's cold path and the lazy public API.

The cold-path checks run a fresh interpreter with ``PYTHONPATH=src``.  It
starts with ``-S``, so no site hook of the host loads a module before
lampk does.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lampk
from lampk.cli import build_parser

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules a well-formed invocation never loads: argparse and the gettext
# it imports, which only -h and an argv argparse must judge load.
ARGPARSE = ("argparse", "gettext")

# Modules the CLI start-up and a fingerprint must not load: argparse, the
# dataclasses machinery, fractions (which loads decimal), the acceptance
# criteria, and the modules of other subcommands.
OFF_THE_COLD_PATH = (
    *ARGPARSE,
    "dataclasses",
    "fractions",
    "lampk.selfcheck",
    "lampk.colimitk",
    "lampk.fullshift",
    "lampk.lamplighterk",
)


def _modules_after(code: str) -> set:
    """sys.modules of a fresh interpreter after it runs code."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _main(*argv) -> str:
    return f"import lampk.cli\nlampk.cli.main({list(argv)!r})"


def test_cli_import_loads_no_subcommand_code():
    loaded = _modules_after("import lampk.cli")
    assert "lampk.cli" in loaded
    assert loaded.isdisjoint(OFF_THE_COLD_PATH)


def test_fingerprint_loads_no_other_subcommand_code():
    loaded = _modules_after(_main("fingerprint", "--group", "C2"))
    assert loaded.isdisjoint(OFF_THE_COLD_PATH)


def test_claim_check_loads_its_own_modules_only():
    loaded = _modules_after(_main("claim-check", "--group", "C2", "--levels", "3"))
    assert "lampk.colimitk" in loaded
    assert "lampk.fullshift" not in loaded
    assert "lampk.selfcheck" not in loaded
    assert loaded.isdisjoint(ARGPARSE)


def test_help_and_malformed_flags_are_argparse_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-S", "-m", "lampk.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    shown = cli("-h")
    assert (shown.returncode, shown.stdout, shown.stderr) == (0, build_parser().format_help(), "")
    argv = ["claim-check", "--group", "C2", "--levels", "x"]
    refused = cli(*argv)
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    expected = capsys.readouterr().err
    assert "argument --levels: invalid int value: 'x'" in expected
    assert (refused.returncode, refused.stdout, refused.stderr) == (2, "", expected)


def test_k1_loads_no_word_or_trace_code():
    loaded = _modules_after(_main("k1", "--group", "C2"))
    assert loaded.isdisjoint({"lampk.lamplighterk", "lampk.shiftwords", "random", "fractions"})


def test_traces_load_no_fractions_or_decimal():
    # the CLI prints the traces from their integer pairs
    loaded = _modules_after(_main("trace", "--group", "S3", "--word", '{"0": 2}'))
    assert loaded.isdisjoint({"fractions", "decimal"})
    loaded = _modules_after(_main("trace-image", "--group", "S3", "--level", "3"))
    assert loaded.isdisjoint({"fractions", "decimal"})


def test_k0_basis_loads_no_trace_or_sampling_code():
    loaded = _modules_after(_main("k0-basis", "--group", "S3", "--max-len", "2"))
    assert "lampk.shiftwords" in loaded
    assert loaded.isdisjoint({"lampk.lamplighterk", "random", "fractions"})


def test_bare_import_resolves_submodules_on_use():
    loaded = _modules_after("import lampk\nassert lampk.colimitk.claim_check")
    assert "lampk.colimitk" in loaded
    assert "lampk.selfcheck" not in loaded


def test_every_public_name_resolves():
    for name in lampk.__all__:
        assert getattr(lampk, name) is not None, name
    assert lampk.builtin("S3").order == 6
    namespace = {}
    exec("from lampk import *", namespace)
    assert set(lampk.__all__) <= set(namespace)


def test_readme_lists_every_public_name_under_its_module():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    after = readme.split("Every public name is importable from `lampk`:")[1]
    section = after.strip("\n").split("\n\n")[0]  # the list ends at a blank line
    listed = {}
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        module, names = bullet.split(":", 1)
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = module.strip("`")
    assert sorted(listed) == sorted(lampk.__all__)
    for name, module in listed.items():
        assert getattr(lampk, name).__module__ == f"lampk.{module}", name


def test_dir_covers_the_public_names():
    assert set(lampk.__all__) <= set(dir(lampk))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lampk.no_such_name
    assert not hasattr(lampk, "no_such_module_either")


def test_submodules_resolve_as_attributes():
    assert lampk.colimitk is sys.modules["lampk.colimitk"]
    assert lampk.jsonio.exact_int(3, "x") == 3
