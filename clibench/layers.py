"""Traced run: the same rounds replayed in process, timed layer by layer.

``lampk.cli.main(argv)`` runs with stdout and stderr captured, while
wrappers installed from this file time the calls into each module's
public functions.  A wrapped call inside another (livsic -> decompose,
orbit enumeration and orbit sums) is charged to both names, but only the
outermost one counts toward the time the layers account for;
``cli.self_ms`` is what is left of ``cli.main_ms``.  Times and counts are
per invocation, averaged over the traced rounds.  The end-to-end runs
never load this file.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import run

TIMES = (
    "cli.main_ms", "cli.self_ms", "cli.dump_ms",
    "colimitk.build_ms", "intdet.det_ms",
    "jsonio.chain_parse_ms", "jsonio.chain_emit_ms",
    "zchain.decompose_ms",
    "fullshift.cylinder_ms", "fullshift.orbit_enum_ms", "fullshift.orbit_sum_ms",
    "fullshift.livsic_ms",
    "shiftwords.enumerate_ms",
    "lamplighterk.trace_image_ms", "lamplighterk.pv_check_ms",
)
COUNTS = (
    "cli.stdout_bytes", "colimitk.order", "colimitk.nnz", "jsonio.terms",
    "zchain.witness_terms", "fullshift.cylinder_terms", "fullshift.orbits",
    "shiftwords.words",
)
STARTUP_REPEATS = 5


class Tracer:
    """Busy time per layer name, plus the time outermost spans cover."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.counts = defaultdict(int)
        self.depth = 0
        self.covered_ms = 0.0
        self.counting_ms = 0.0  # spent by the counters, not by lampk

    @contextlib.contextmanager
    def span(self, name: str):
        self.depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            ms = (time.perf_counter() - start) * 1000
            self.depth -= 1
            self.ms[name] += ms
            if self.depth == 0:
                self.covered_ms += ms

    def wrap(self, fn, name: str, count=None):
        """fn timed under name; count(result) yields (counter, amount)."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                start = time.perf_counter()
                for counter, amount in count(result):
                    self.counts[counter] += amount
                self.counting_ms += (time.perf_counter() - start) * 1000
            return result

        return traced

    def wrap_iter(self, fn, name: str, counter: str):
        """A generator function whose every step is timed under name."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    item = next(it, None)
                if item is None:
                    return
                self.counts[counter] += 1
                yield item

        return traced


def _patch(tracer: Tracer, lampk) -> list:
    """Install the wrappers; returns (object, attribute, original) to undo."""
    cli, colimitk, intdet, jsonio = lampk.cli, lampk.colimitk, lampk.intdet, lampk.jsonio
    zchain, fullshift, shiftwords, lamplighterk = (
        lampk.zchain, lampk.fullshift, lampk.shiftwords, lampk.lamplighterk)

    def matrix_size(m):
        yield "colimitk.order", len(m)
        yield "colimitk.nnz", sum(1 for row in m for v in row if v)

    plan = [
        # (wrapped function, timer name, count, modules that hold a reference)
        (colimitk.claim_matrix, "colimitk.build_ms", matrix_size, [colimitk]),
        (intdet.det, "intdet.det_ms", None, [intdet]),
        (jsonio.chain_from_json, "jsonio.chain_parse_ms",
         lambda c: [("jsonio.terms", len(c))], [jsonio]),
        (jsonio.chain_to_json, "jsonio.chain_emit_ms",
         lambda j: [("jsonio.terms", len(j))], [jsonio]),
        (zchain.decompose, "zchain.decompose_ms",
         lambda d: [("zchain.witness_terms", len(d.witness))], [zchain]),
        (fullshift.cylinder_to_chain, "fullshift.cylinder_ms",
         lambda c: [("fullshift.cylinder_terms", len(c))], [fullshift, cli]),
        (fullshift.periodic_orbit_sum, "fullshift.orbit_sum_ms", None, [fullshift]),
        (fullshift.livsic_check, "fullshift.livsic_ms", None, [fullshift, cli]),
        (shiftwords.enumerate_canonical, "shiftwords.enumerate_ms",
         lambda w: [("shiftwords.words", len(w))], [shiftwords, lamplighterk, cli]),
        (lamplighterk.trace_image_level, "lamplighterk.trace_image_ms", None,
         [lamplighterk, cli]),
        (lamplighterk.pv_check, "lamplighterk.pv_check_ms", None, [lamplighterk, cli]),
        (cli._emit, "cli.dump_ms", None, [cli]),
    ]
    undo = []
    for fn, name, count, holders in plan:
        traced = tracer.wrap(fn, name, count)
        for module in holders:
            undo.append((module, fn.__name__, fn))
            setattr(module, fn.__name__, traced)
    orbit_reps = fullshift.orbit_representatives
    undo.append((fullshift, "orbit_representatives", orbit_reps))
    fullshift.orbit_representatives = tracer.wrap_iter(
        orbit_reps, "fullshift.orbit_enum_ms", "fullshift.orbits")
    return undo


def _call_main(main, argv: list):
    """lampk.cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends a cold run the same way
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _startup_ms(launcher: run.Launcher) -> tuple[float, float]:
    """Bare interpreter start, and ``import lampk.cli`` timed inside a
    fresh interpreter (medians over fresh processes)."""
    python = sys.executable
    bare = run.median_wall_s(launcher, [python, "-c", "pass"], STARTUP_REPEATS)
    probe = ("import time; t = time.perf_counter(); import lampk.cli; "
             "print(time.perf_counter() - t)")
    launcher.run([python, "-c", probe])
    imports = [float(launcher.run([python, "-c", probe]).stdout)
               for _ in range(STARTUP_REPEATS)]
    return bare * 1000, statistics.median(imports) * 1000


def traced(workload: str, seed: int, seconds: float, src: Path,
           launcher: run.Launcher) -> dict:
    interpreter_ms, import_ms = _startup_ms(launcher)
    sys.path.insert(0, str(src))
    import lampk.cli  # loads every layer module

    tracer = Tracer()
    undo = _patch(tracer, lampk)
    tally = run.Tally()
    main_ms = 0.0
    try:
        for ops in run.rounds(workload, seed, seconds):
            for op in ops:
                start = time.perf_counter()
                code, out, err = _call_main(lampk.cli.main, list(op.argv))
                main_ms += (time.perf_counter() - start) * 1000
                tracer.counts["cli.stdout_bytes"] += len(out.encode())
                tally.record(op, code, out, err)
    finally:
        for module, attr, fn in reversed(undo):
            setattr(module, attr, fn)

    n = tally.attempted
    ms = dict(tracer.ms)
    ms["cli.main_ms"] = main_ms - tracer.counting_ms
    ms["cli.self_ms"] = ms["cli.main_ms"] - tracer.covered_ms
    metrics = {
        "cli.interpreter_ms": {"value": interpreter_ms, "unit": "ms"},
        "cli.import_ms": {"value": import_ms, "unit": "ms"},
    }
    for name in TIMES:
        metrics[name] = {"value": ms.get(name, 0.0) / n, "unit": "ms"}
    for name in COUNTS:
        unit = "bytes" if name == "cli.stdout_bytes" else "count"
        metrics[name] = {"value": tracer.counts.get(name, 0) / n, "unit": unit}
    return tally.result(metrics)
