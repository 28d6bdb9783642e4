"""The CLI surface: every subcommand's flags, defaults and help strings, and
the order ``lampk -h`` lists the subcommands in."""

import argparse

import pytest

from lampk.cli import build_parser, main

REQUIRED = object()  # a required flag: it has no default

# name: (help, {flag: (default or REQUIRED, type, choices, help)}), in -h order
SURFACE = {
    "fingerprint": ("(|F|, sorted dims, |F^ab|)", {"--group": (REQUIRED, None, None, None)}),
    "classify": (
        "C*-algebra isomorphism decision",
        {"--group": (REQUIRED, None, None, None), "--other": (REQUIRED, None, None, None)},
    ),
    **{
        name: (
            helptext,
            {
                "--group": (REQUIRED, None, None, None),
                "--max-len": (REQUIRED, int, None, None),
                "--format": ("json", None, ("json", "table"), None),
            },
        )
        for name, helptext in (
            ("orbits", "canonical orbit representatives"),
            ("k0-basis", "K0 basis words (both sides coincide)"),
        )
    },
    "k1": ("K1 report", {"--group": (REQUIRED, None, None, None)}),
    "claim-check": (
        "direct-sum certificate",
        {"--group": (REQUIRED, None, None, None), "--levels": (REQUIRED, int, None, None)},
    ),
    "pv-check": (
        "kernel/cokernel property test",
        {
            "--group": (REQUIRED, None, None, None),
            "--samples": (1000, int, None, None),
            "--window": (4, int, None, None),
            "--seed": (42, int, None, None),
        },
    ),
    "trace": (
        "trace of a word's projection class",
        {
            "--group": (REQUIRED, None, None, None),
            "--word": (REQUIRED, None, None, 'entries JSON, e.g. {"0":1,"3":1}'),
        },
    ),
    "trace-image": (
        "trace image generator at a level",
        {"--group": (REQUIRED, None, None, None), "--level": (REQUIRED, int, None, None)},
    ),
    "decompose": (
        "coboundary + canonical splitting",
        {
            "--group": (REQUIRED, None, None, None),
            "--fn": (REQUIRED, None, None, "chain JSON file (or inline JSON)"),
        },
    ),
    "livsic": (
        "periodic-orbit coboundary test",
        {
            "--group": (REQUIRED, None, None, None),
            "--fn": (REQUIRED, None, None, "chain JSON file (or inline JSON)"),
            "--max-period": (None, int, None, None),
        },
    ),
    "cylinder-expand": (
        "full cylinder as a chain",
        {
            "--group": (REQUIRED, None, None, None),
            "--spec": (REQUIRED, None, None, 'constraints JSON, e.g. {"0":0,"1":1}'),
        },
    ),
    "selfcheck": ("run the acceptance criteria", {"--budget": (300.0, float, None, "seconds")}),
}


def subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, action.choices


def test_every_subcommand_is_listed():
    _, choices = subparsers()
    assert list(choices) == list(SURFACE)


@pytest.mark.parametrize("name", list(SURFACE))
def test_flags_and_defaults(name):
    _, choices = subparsers()
    flags = {}
    for action in choices[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        (flag,) = action.option_strings
        assert action.dest == flag[2:].replace("-", "_")
        default = REQUIRED if action.required else action.default
        choice = tuple(action.choices) if action.choices is not None else None
        flags[flag] = (default, action.type, choice, action.help)
    assert flags == SURFACE[name][1]


@pytest.mark.parametrize("name", list(SURFACE))
def test_defaults_as_parsed(name):
    parser, _ = subparsers()
    argv = [name]
    for flag, (default, *_) in SURFACE[name][1].items():
        if default is REQUIRED:
            argv += [flag, "2"]
    args = parser.parse_args(argv)
    for flag, (default, *_) in SURFACE[name][1].items():
        if default is not REQUIRED:
            value = getattr(args, flag[2:].replace("-", "_"))
            assert value == default and type(value) is type(default)


def test_top_level_help_lists_the_subcommands_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    lines = [line.split(None, 1) for line in out.splitlines() if line.startswith("    ")]
    assert [(name, helptext) for name, (helptext, _) in SURFACE.items()] == [
        (name, rest.strip()) for name, rest in lines
    ]


@pytest.mark.parametrize("name", list(SURFACE))
def test_subcommand_help_names_every_flag(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([name, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: lampk {name} [-h]")
    for flag, (*_, helptext) in SURFACE[name][1].items():
        assert f"  {flag}" in out
        if helptext is not None:
            assert helptext in out
