"""Command-line interface.

stdout carries the JSON result (the stable contract); human diagnostics go
to stderr.  Exit codes: 0 success, 1 domain error or stdout closed by its
reader (machine-readable JSON on stderr), 2 usage error, 3 selfcheck stopped
by its time budget.  Rationals are emitted as {"num", "den"} objects; no
numeric output is ever a float.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import BOUNDARY_IDENTITY, DEFAULT_SEED
from .errors import LampkError, check_budget
from .grouprep import GroupRepData, builtin, csalgebras_isomorphic_abelian_case, fingerprint

# Each handler imports the modules it runs when it runs, so a subcommand
# loads only its own code.  Handlers read functions off their modules at
# call time, never at import, so a function replaced on its module (as a
# tracer does) is the one called.


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
                    key = json.dumps(key, ensure_ascii=False)
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


def _load_chain(path_or_json: str, group: GroupRepData):
    """--fn accepts a file path, or the chain JSON inline (starts with [).

    A file is read to one character past MAX_CHAIN_FILE_CHARS; inline JSON is
    capped by the kernel (128 KiB an argument on Linux).  Every word entry
    must index an irrep of the group.
    """
    from . import jsonio
    from .shiftwords import check_alphabet

    text = path_or_json.strip()
    if not text.startswith("["):
        try:
            with open(text) as file:
                text = file.read(MAX_CHAIN_FILE_CHARS + 1)
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"--fn: not a readable chain file: {exc}") from exc
        check_budget("reading the --fn file", len(text), MAX_CHAIN_FILE_CHARS, "characters")
    chain = jsonio.chain_from_json(_parse_json_arg("--fn", text))
    check_alphabet(group, chain)
    return chain


def _emit(payload: dict, fmt: str = "json", table_lines=None) -> None:
    """Print the payload as ``json.dumps(payload, indent=2, ensure_ascii=False)``
    would, with each ZChain value written as its chain JSON and each list of
    Words as its word list JSON.

    The text goes to ``sys.stdout``, looked up here, as a stream of pieces:
    a chain or word list a few terms at a time, so its whole text is never
    held.  Whatever would make the result unprintable is found before the
    first byte is written, so a refused result leaves stdout empty: every
    key and every other value is encoded (a lone surrogate in an echoed
    name cannot be), and the chain and word writers check the digit limit
    when called.  Their text is ASCII, so it needs no encoding check.
    """
    if fmt == "table" and table_lines is not None:
        for line in table_lines:
            print(line)
        return
    stdout = sys.stdout
    # A ZChain or a Word exists only once its module is loaded, so look it
    # up rather than import it on every subcommand's path.
    zchain = sys.modules.get(f"{__package__}.zchain")
    shiftwords = sys.modules.get(f"{__package__}.shiftwords")
    encoding = getattr(stdout, "encoding", None) or "utf-8"
    errors = getattr(stdout, "errors", None) or "strict"
    parts = []  # iterables of pieces, written in turn
    try:
        for key, value in payload.items():
            head = (",\n  " if parts else "{\n  ") + json.dumps(key, ensure_ascii=False) + ": "
            head.encode(encoding, errors)
            if zchain is not None and isinstance(value, zchain.ZChain):
                from . import jsonio

                pieces = jsonio.chain_pieces(value, "  ")
            elif (
                shiftwords is not None
                and isinstance(value, list)
                and value
                and isinstance(value[0], shiftwords.Word)
            ):
                from . import jsonio

                pieces = jsonio.words_pieces(value, "  ")
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


def cmd_fingerprint(args) -> int:
    group = _parse_group(args.group)
    order, dims, abelian_order = fingerprint(group)
    _emit({"order": order, "dims": list(dims), "abelian_order": abelian_order})
    return 0


def cmd_classify(args) -> int:
    g1 = _parse_group(args.group)
    g2 = _parse_group(args.other)
    decision = csalgebras_isomorphic_abelian_case(g1, g2)
    _emit({"groups": [g1.name, g2.name], "decision": decision})
    return 0


def cmd_words(args) -> int:
    """orbits and k0-basis: the canonical words, which are the K0 basis too."""
    from .shiftwords import enumerate_canonical

    group = _parse_group(args.group)
    words = enumerate_canonical(group, args.max_len)
    payload = {"group": group.name, "max_len": args.max_len, "count": len(words)}
    if args.command == "orbits":
        payload["words"] = words
    else:
        payload["basis"] = words
        # a theorem (zchain.projection_chain is unitriangular), checked by
        # acceptance criterion 5, not recomputed on every call
        payload["sides_identical"] = True
    table = _word_table(words) if args.format == "table" else None
    _emit(payload, args.format, table)
    return 0


def cmd_k1(args) -> int:
    _parse_group(args.group)  # validated, but K1 is the same for every F
    _emit({"K1": "Z", "generator": "[u]", "boundary": BOUNDARY_IDENTITY})
    return 0


def cmd_claim_check(args) -> int:
    from .colimitk import claim_check

    group = _parse_group(args.group)
    cert = claim_check(group, args.levels)
    _emit(
        {
            "size": cert.size,
            "det": cert.det,
            "holds": cert.holds,
            "elapsed_ms": cert.elapsed_ms,
        }
    )
    return 0


def cmd_pv_check(args) -> int:
    from .lamplighterk import pv_check

    group = _parse_group(args.group)
    report = pv_check(group, samples=args.samples, window=args.window, seed=args.seed)
    _emit(
        {
            "group": report.group,
            "samples": report.samples,
            "window": report.window,
            "seed": report.seed,
            "passed": report.passed,
            "counterexamples": report.counterexamples,
        }
    )
    return 0 if report.passed else 1


def cmd_trace(args) -> int:
    from . import jsonio
    from .lamplighterk import trace_of_word

    group = _parse_group(args.group)
    word = jsonio.word_from_json(_parse_json_arg("--word", args.word))
    value = trace_of_word(group, word)
    _emit(
        {
            "group": group.name,
            "word": jsonio.word_to_json(word),
            "trace": jsonio.fraction_to_json(value),
        }
    )
    return 0


def cmd_trace_image(args) -> int:
    from . import jsonio
    from .lamplighterk import trace_image_level

    group = _parse_group(args.group)
    generator = trace_image_level(group, args.level)
    _emit(
        {
            "group": group.name,
            "level": args.level,
            "generator": jsonio.fraction_to_json(generator),
        }
    )
    return 0


def cmd_decompose(args) -> int:
    from .fullshift import coboundary_decompose

    group = _parse_group(args.group)
    chain = _load_chain(args.fn, group)
    witness, canonical = coboundary_decompose(group, chain)
    _emit(
        {
            "group": group.name,
            "witness": witness,
            "canonical": canonical,
        }
    )
    return 0


def cmd_livsic(args) -> int:
    from .fullshift import livsic_check

    group = _parse_group(args.group)
    chain = _load_chain(args.fn, group)
    report = livsic_check(group, chain, max_period=args.max_period)
    _emit(
        {
            "group": group.name,
            "is_coboundary": report.is_coboundary_exact,
            "periodic_sums_vanish": report.periodic_sums_vanish,
            "max_period_checked": report.max_period_checked,
            "violating_orbit": (
                list(report.violating_orbit)
                if report.violating_orbit is not None
                else None
            ),
            "violating_sum": report.violating_sum,
        }
    )
    return 0


def cmd_cylinder_expand(args) -> int:
    from . import jsonio
    from .fullshift import cylinder_to_chain

    group = _parse_group(args.group)
    raw = _parse_json_arg("--spec", args.spec)
    if not isinstance(raw, dict):
        raise UsageError("--spec: expected an object of position -> value")
    chain = cylinder_to_chain(group, jsonio.pins_from_json(raw))
    _emit({"group": group.name, "chain": chain})
    return 0


def cmd_selfcheck(args) -> int:
    from . import selfcheck

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
        payload["status"] = "fail"
        code = 1
    elif any(r.status == "skipped" for r in results):
        payload["status"] = "incomplete"
        code = 3
    else:
        payload["status"] = "pass"
        code = 0
    _emit(payload)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lampk",
        description=(
            "Exact K-group bookkeeping for lamplighter group C*-algebras"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **help_kw):
        p = sub.add_parser(name, **help_kw)
        p.set_defaults(handler=fn)
        return p

    p = add("fingerprint", cmd_fingerprint, help="(|F|, sorted dims, |F^ab|)")
    p.add_argument("--group", required=True)

    p = add("classify", cmd_classify, help="C*-algebra isomorphism decision")
    p.add_argument("--group", required=True)
    p.add_argument("--other", required=True)

    for name, helptext in (
        ("orbits", "canonical orbit representatives"),
        ("k0-basis", "K0 basis words (both sides coincide)"),
    ):
        p = add(name, cmd_words, help=helptext)
        p.add_argument("--group", required=True)
        p.add_argument("--max-len", type=int, required=True, dest="max_len")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = add("k1", cmd_k1, help="K1 report")
    p.add_argument("--group", required=True)

    p = add("claim-check", cmd_claim_check, help="direct-sum certificate")
    p.add_argument("--group", required=True)
    p.add_argument("--levels", type=int, required=True)

    p = add("pv-check", cmd_pv_check, help="kernel/cokernel property test")
    p.add_argument("--group", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("trace", cmd_trace, help="trace of a word's projection class")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True, help='entries JSON, e.g. {"0":1,"3":1}')

    p = add("trace-image", cmd_trace_image, help="trace image generator at a level")
    p.add_argument("--group", required=True)
    p.add_argument("--level", type=int, required=True)

    p = add("decompose", cmd_decompose, help="coboundary + canonical splitting")
    p.add_argument("--group", required=True)
    p.add_argument("--fn", required=True, help="chain JSON file (or inline JSON)")

    p = add("livsic", cmd_livsic, help="periodic-orbit coboundary test")
    p.add_argument("--group", required=True)
    p.add_argument("--fn", required=True, help="chain JSON file (or inline JSON)")
    p.add_argument("--max-period", type=int, default=None, dest="max_period")

    p = add("cylinder-expand", cmd_cylinder_expand, help="full cylinder as a chain")
    p.add_argument("--group", required=True)
    p.add_argument("--spec", required=True, help='constraints JSON, e.g. {"0":0,"1":1}')

    p = add("selfcheck", cmd_selfcheck, help="run the acceptance criteria")
    p.add_argument("--budget", type=float, default=300.0, help="seconds")

    return parser


def _error(exc: Exception) -> int:
    error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(error, ensure_ascii=False), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        parser.exit(2, f"usage error: {exc}\n")
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
