"""Command-line interface.

stdout carries the JSON result (the stable contract); human diagnostics go
to stderr.  Exit codes: 0 success; 1 a domain error or stdout closed by its
reader (machine-readable JSON on stderr), or a failed check (pv-check found
a counterexample, or a selfcheck criterion failed); 2 usage error; 3
selfcheck stopped by its time budget.  Rationals are emitted as {"num",
"den"} objects; no numeric output is ever a float.

Well-formed flags are read straight from ``COMMANDS``: the subcommand,
then ``--flag value`` pairs of its entry, each flag at most once, no value
starting with ``-``, every value converted and in its choices, and every
required flag given.  argparse loads only for ``-h`` and for an argv it
must judge, so help and every usage error it reports are its own text.
"""

from __future__ import annotations

import json
import math
import os
import sys
import types
from functools import partial

from . import BOUNDARY_IDENTITY, DEFAULT_SEED
from .errors import LampkError, check_budget, quoted
from .grouprep import GroupRepData, builtin, csalgebras_isomorphic_abelian_case, fingerprint

class UsageError(Exception):
    pass


def _parse_group(text: str) -> GroupRepData:
    """A builtin name, or inline JSON {"name", "order", "dims"}."""
    text = text.strip()
    if text.startswith("{"):
        from . import jsonio

        return jsonio.group_from_json(_parse_json_arg("--group", text))
    return builtin(text)


def _parse_json_arg(flag: str, text: str):
    """Malformed JSON is a usage error; well-formed JSON the interpreter
    cannot hold (an integer past its digit limit, or nesting past its
    recursion limit), or an object giving a key twice, is a domain error."""

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    key = quoted(key, lambda k: json.dumps(k, ensure_ascii=False))
                    raise LampkError(f"{flag}: key {key} given twice in one object")
                seen.add(key)
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{flag}: invalid JSON: {exc}") from exc
    except ValueError as exc:
        raise LampkError(f"{flag}: {exc}") from exc
    except RecursionError as exc:
        raise LampkError(f"{flag}: JSON nested too deeply to parse") from exc


# Characters a --fn file may hold.  A 4 MiB C2 chain (64 000 terms) loads in
# about 1.1 s at 77 MB peak RSS, a 16 MiB one in 3.3 s at 199 MB (in process,
# Python 3.11 on an Intel Xeon).
MAX_CHAIN_FILE_CHARS = 1 << 22


def _load_chain(path_or_json: str):
    """--fn accepts a file path, or the chain JSON inline (starts with [).

    A file is read to one character past MAX_CHAIN_FILE_CHARS; inline JSON is
    capped by the kernel (128 KiB an argument on Linux).  The library call
    the chain goes to checks its letters against the group.
    """
    from . import jsonio

    text = path_or_json.strip()
    if not text.startswith("["):
        try:
            with open(text) as file:
                text = file.read(MAX_CHAIN_FILE_CHARS + 1)
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"--fn: not a readable chain file: {exc}") from exc
        check_budget("reading the --fn file", len(text), MAX_CHAIN_FILE_CHARS, "characters")
    return jsonio.chain_from_json(_parse_json_arg("--fn", text))


def _emit(payload: dict) -> None:
    """Print the payload as ``json.dumps(payload, indent=2, ensure_ascii=False)``
    would, with each callable value written as the pieces it returns when
    called with the indent: a handler puts a jsonio writer there, bound to
    the chain's terms or the word list it streams.

    The text goes to ``sys.stdout``, looked up here, as a stream of pieces:
    a chain or word list a few terms at a time, so its whole text is never
    held, and its terms or words are made as they are written, in the word
    order they are built in, with no sort.
    Whatever would make the result unprintable is found before the first
    byte is written, so a refused result leaves stdout empty: every key and
    every other value is encoded (a lone surrogate in an echoed name cannot
    be), and the writers check the digit limit when called.  Their text is
    ASCII, so it needs no encoding check.
    """
    stdout = sys.stdout
    encoding = getattr(stdout, "encoding", None) or "utf-8"
    errors = getattr(stdout, "errors", None) or "strict"
    parts = []  # iterables of pieces, written in turn
    try:
        for key, value in payload.items():
            head = (",\n  " if parts else "{\n  ") + json.dumps(key, ensure_ascii=False) + ": "
            head.encode(encoding, errors)
            if callable(value):
                pieces = value("  ")
            else:
                text = json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n  ")
                text.encode(encoding, errors)
                pieces = (text,)
            parts += ((head,), pieces)
    except ValueError as exc:  # past the digit limit, or not encodable
        raise LampkError(f"the result cannot be printed: {exc}") from exc
    for pieces in parts:
        for piece in pieces:
            stdout.write(piece)
    stdout.write("\n}\n" if parts else "{}\n")


def _word_table(words):
    yield f"{'#':>5}  {'window':>6}  entries"
    for i, w in enumerate(words):
        entries = " ".join(f"{p}:{v}" for p, v in w.entries) or "(empty)"
        yield f"{i:>5}  {w.window_length():>6}  {entries}"


# Each handler takes the parsed arguments and the parsed --group (None for
# selfcheck) and returns (payload, exit code); main prints the payload.  A
# handler imports the modules it runs when it runs, so a subcommand loads
# only its own code, and reads functions off their modules at call time,
# never at import, so a function replaced on its module (as a tracer does)
# is the one called.


def cmd_fingerprint(args, group):
    order, dims, abelian_order = fingerprint(group)
    return {"order": order, "dims": list(dims), "abelian_order": abelian_order}, 0


def cmd_classify(args, group):
    other = _parse_group(args.other)
    decision = csalgebras_isomorphic_abelian_case(group, other)
    return {"groups": [group.name, other.name], "decision": decision}, 0


def cmd_words(args, group):
    """orbits and k0-basis: the canonical words, which are the K0 basis too."""
    from . import jsonio, shiftwords

    words = shiftwords.canonical_words(group, args.max_len)
    if args.format == "table":
        for line in _word_table(words):
            print(line)
        return None, 0
    count = shiftwords.canonical_count(group, args.max_len)
    payload = {"group": group.name, "max_len": args.max_len, "count": count}
    # positions run from 0 to max_len - 1
    pieces = partial(jsonio.words_pieces, words, args.max_len - 1)
    if args.command == "orbits":
        payload["words"] = pieces
    else:
        payload["basis"] = pieces
        # a theorem (zchain.projection_chain is unitriangular), checked by
        # acceptance criterion 5, not recomputed on every call
        payload["sides_identical"] = True
    return payload, 0


def cmd_k1(args, group):
    # the group is validated, but K1 is the same for every F
    return {"K1": "Z", "generator": "[u]", "boundary": BOUNDARY_IDENTITY}, 0


def cmd_claim_check(args, group):
    from .colimitk import claim_check

    cert = claim_check(group, args.levels)
    return {
        "size": cert.size,
        "det": cert.det,
        "holds": cert.holds,
        "elapsed_ms": cert.elapsed_ms,
    }, 0


def cmd_pv_check(args, group):
    from .lamplighterk import pv_check

    report = pv_check(group, samples=args.samples, window=args.window, seed=args.seed)
    return {
        "group": report.group,
        "samples": report.samples,
        "window": report.window,
        "seed": report.seed,
        "passed": report.passed,
        "counterexamples": report.counterexamples,
    }, 0 if report.passed else 1


def cmd_trace(args, group):
    from . import jsonio
    from .lamplighterk import trace_pair_of_word

    word = jsonio.word_from_json(_parse_json_arg("--word", args.word))
    return {
        "group": group.name,
        "word": jsonio.word_to_json(word),
        "trace": jsonio.ratio_to_json(*trace_pair_of_word(group, word)),
    }, 0


def cmd_trace_image(args, group):
    from . import jsonio
    from .lamplighterk import trace_image_pair

    return {
        "group": group.name,
        "level": args.level,
        "generator": jsonio.ratio_to_json(*trace_image_pair(group, args.level)),
    }, 0


def cmd_decompose(args, group):
    from . import jsonio
    from .fullshift import coboundary_terms

    chain = _load_chain(args.fn)
    witness, canonical = coboundary_terms(group, chain)
    return {
        "group": group.name,
        "witness": partial(jsonio.terms_pieces, witness),
        "canonical": partial(jsonio.terms_pieces, canonical),
    }, 0


def cmd_livsic(args, group):
    from .fullshift import livsic_check

    chain = _load_chain(args.fn)
    report = livsic_check(group, chain, max_period=args.max_period)
    return {
        "group": group.name,
        "is_coboundary": report.is_coboundary_exact,
        "periodic_sums_vanish": report.periodic_sums_vanish,
        "max_period_checked": report.max_period_checked,
        "violating_orbit": report.violating_orbit,  # a tuple prints as a list
        "violating_sum": report.violating_sum,
    }, 0


def cmd_cylinder_expand(args, group):
    from . import jsonio
    from .fullshift import cylinder_terms

    raw = _parse_json_arg("--spec", args.spec)
    if not isinstance(raw, dict):
        raise UsageError("--spec: expected an object of position -> value")
    pins = jsonio.int_pairs(raw.items(), "cylinder position", "cylinder value")
    terms = cylinder_terms(group, pins)
    return {"group": group.name, "chain": partial(jsonio.terms_pieces, terms)}, 0


def cmd_selfcheck(args, group):
    from . import selfcheck

    if math.isnan(args.budget):
        raise UsageError("--budget: expected a number of seconds, got nan")
    results = selfcheck.run_all(budget_s=args.budget)
    for res in results:
        print(
            f"[{res.status:>7}] criterion {res.cid} {res.name} "
            f"({res.elapsed_s:.2f}s): {res.detail}",
            file=sys.stderr,
        )
    payload = {
        "seed": DEFAULT_SEED,
        "checks": [
            {"id": r.cid, "name": r.name, "status": r.status} for r in results
        ],
    }
    if any(r.status == "fail" for r in results):
        return {**payload, "status": "fail"}, 1
    if any(r.status == "skipped" for r in results):
        return {**payload, "status": "incomplete"}, 3
    return {**payload, "status": "pass"}, 0


_GROUP = ("--group", {"required": True})
_FN = ("--fn", {"required": True, "help": "chain JSON file (or inline JSON)"})
_WORDS = [_GROUP, ("--max-len", {"type": int, "required": True}),
          ("--format", {"choices": ("json", "table"), "default": "json"})]

# The subcommands in help order: name -> (handler, help, [(flag, keywords of
# add_argument)]).  _read_argv understands the keywords required, default,
# type, choices and help, and nothing else.
COMMANDS = {
    "fingerprint": (cmd_fingerprint, "(|F|, sorted dims, |F^ab|)", [_GROUP]),
    "classify": (cmd_classify, "C*-algebra isomorphism decision", [
        _GROUP, ("--other", {"required": True})]),
    "orbits": (cmd_words, "canonical orbit representatives", _WORDS),
    "k0-basis": (cmd_words, "K0 basis words (both sides coincide)", _WORDS),
    "k1": (cmd_k1, "K1 report", [_GROUP]),
    "claim-check": (cmd_claim_check, "direct-sum certificate", [
        _GROUP, ("--levels", {"type": int, "required": True})]),
    "pv-check": (cmd_pv_check, "kernel/cokernel property test", [
        _GROUP,
        ("--samples", {"type": int, "default": 1000}),
        ("--window", {"type": int, "default": 4}),
        ("--seed", {"type": int, "default": DEFAULT_SEED})]),
    "trace": (cmd_trace, "trace of a word's projection class", [
        _GROUP, ("--word", {"required": True, "help": 'entries JSON, e.g. {"0":1,"3":1}'})]),
    "trace-image": (cmd_trace_image, "trace image generator at a level", [
        _GROUP, ("--level", {"type": int, "required": True})]),
    "decompose": (cmd_decompose, "coboundary + canonical splitting", [_GROUP, _FN]),
    "livsic": (cmd_livsic, "periodic-orbit coboundary test", [
        _GROUP, _FN, ("--max-period", {"type": int})]),
    "cylinder-expand": (cmd_cylinder_expand, "full cylinder as a chain", [
        _GROUP, ("--spec", {"required": True, "help": 'constraints JSON, e.g. {"0":0,"1":1}'})]),
    "selfcheck": (cmd_selfcheck, "run the acceptance criteria", [
        ("--budget", {"type": float, "default": 300.0, "help": "seconds"})]),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="lampk",
        description=(
            "Exact K-group bookkeeping for lamplighter group C*-algebras"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, helptext, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
    return parser


def _read_argv(argv) -> types.SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) returns, read straight
    from COMMANDS, if argv is well-formed as the module docstring says;
    None for any other argv, which argparse must judge."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, flags = COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) < len(argv) // 2:  # a flag given twice, or a last one with no value
        return None
    values = {"command": argv[0]}
    for flag, keywords in flags:
        text = given.pop(flag, None)
        if text is None:
            if keywords.get("required"):
                return None
            value = keywords.get("default")
        elif text.startswith("-"):
            return None
        else:
            value = text
            if "type" in keywords:
                try:
                    value = keywords["type"](text)
                except (TypeError, ValueError):
                    return None
            choices = keywords.get("choices")
            if choices is not None and value not in choices:
                return None
        values[flag[2:].replace("-", "_")] = value
    if given:  # a flag the subcommand does not have
        return None
    values["handler"] = handler
    return types.SimpleNamespace(**values)


def _error(exc: Exception) -> int:
    error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(error, ensure_ascii=False), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        text = getattr(args, "group", None)
        payload, code = args.handler(args, None if text is None else _parse_group(text))
        if payload is not None:
            _emit(payload)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        sys.exit(2)
    except LampkError as exc:
        return _error(exc)
    except BrokenPipeError as exc:
        # The reader closed stdout.  As the note on SIGPIPE in the signal
        # module's documentation advises, point stdout at devnull so the
        # flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
