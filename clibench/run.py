"""Cold-CLI benchmark for lampk.

Run from the root of a lampk source tree:

    python3 clibench/run.py --workload certificate --seed 1 --seconds 30 --trace 0

One client runs a closed loop: it starts ``python -m lampk.cli ...`` as a
cold subprocess, waits for it to exit, checks its output, and only then
starts the next one.  A run is made of whole rounds (see workloads.py), so
the share of known-fault invocations is the same in every run.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the same rounds are replayed in process and the last line
carries the per-layer metrics (see layers.py).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from workloads import WORKLOADS

SETUP_PER_ROUND = 3  # fresh ``import lampk.cli`` runs before each round; setup_s is their median
MIN_INVOCATIONS = 100  # a run goes on past --seconds until it has made this many
SCRATCH = ".clibench"  # holds the output files of the running invocation
REPORTED_FAILURES = 5  # failure reasons echoed to stderr per run


class Invocation(NamedTuple):
    """One finished child process: exit code, output and what it cost."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int


class Launcher:
    """The small process (launcher.py) that starts every invocation.

    Output goes through two files in a scratch directory of the checkout;
    ``close`` ends the launcher, waits for it and removes the files.
    """

    def __init__(self, src: Path):
        self.scratch = src.parent / SCRATCH
        self.scratch.mkdir(exist_ok=True)
        self.out = self.scratch / "stdout"
        self.err = self.scratch / "stderr"
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(src), text=True)

    def run(self, argv: list) -> Invocation:
        request = {"argv": argv, "out": str(self.out), "err": str(self.err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        reply = json.loads(reply)
        return Invocation(
            reply["code"],
            self.out.read_text(errors="replace"),
            self.err.read_text(errors="replace"),
            reply["wall_s"],
            reply["cpu_s"],
            reply["maxrss_kb"],
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        for path in (self.out, self.err):
            path.unlink(missing_ok=True)
        self.scratch.rmdir()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LAMPK_", "PYTHON"))}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def wall_times(launcher: Launcher, argv: list, repeats: int) -> list:
    """Wall times of fresh runs of argv."""
    times = []
    for _ in range(repeats):
        inv = launcher.run(argv)
        if inv.code != 0:
            raise SystemExit(f"{argv[1:]} failed: {inv.stderr.strip()[-300:]}")
        times.append(inv.wall_s)
    return times


def median_wall_s(launcher: Launcher, argv: list, repeats: int) -> float:
    """Median wall time of fresh runs, after one untimed run that writes
    the bytecode cache a fresh checkout lacks."""
    launcher.run(argv)
    return statistics.median(wall_times(launcher, argv, repeats))


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def rounds(workload: str, seed: int, seconds: float):
    """Yield the ops of whole rounds; once MIN_INVOCATIONS ops are out,
    stop before a round that the mean round time so far says would end
    after ``seconds``."""
    make = WORKLOADS[workload]
    start = time.perf_counter()
    index = ops = 0
    while True:
        batch = make(round_rng(workload, seed, index))
        yield batch
        index += 1
        ops += len(batch)
        elapsed = time.perf_counter() - start
        if ops >= MIN_INVOCATIONS and elapsed + elapsed / index > seconds:
            return


class Tally:
    """attempted / failed / correct over a run, with failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons = []

    def record(self, op, code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        reason = op.check(code, stdout, stderr)
        if reason is None:
            return
        self.failed += 1
        if op.fault is None:
            self.correct = False
        if len(self.reasons) < REPORTED_FAILURES:
            tag = f"known fault {op.fault}" if op.fault else "WRONG"
            self.reasons.append(f"{tag}: {' '.join(op.argv)[:120]}: {reason}")

    def result(self, metrics: dict) -> dict:
        for line in self.reasons:
            print(line, file=sys.stderr)
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def end_to_end(workload: str, seed: int, seconds: float, launcher: Launcher) -> dict:
    python = sys.executable
    setup = [python, "-c", "import lampk.cli"]
    launcher.run(setup)  # writes the bytecode cache a fresh checkout lacks

    tally = Tally()
    latencies, rss, imports = [], [], []
    round_rates, round_cpu = [], []  # per round: invocations/s, CPU ms/invocation
    for ops in rounds(workload, seed, seconds):
        # Imports spread over the whole run, so that no one slow stretch
        # of the host sets setup_s.
        imports += wall_times(launcher, setup, SETUP_PER_ROUND)
        start = time.perf_counter()
        cpu_ms = 0.0
        for op in ops:
            inv = launcher.run([python, "-m", "lampk.cli", *op.argv])
            latencies.append(inv.wall_s * 1000)
            cpu_ms += inv.cpu_s * 1000
            rss.append(inv.maxrss_kb)
            tally.record(op, inv.code, inv.stdout, inv.stderr)
        round_rates.append(len(ops) / (time.perf_counter() - start))
        round_cpu.append(cpu_ms / len(ops))

    # The host's speed drifts over seconds; medians over rounds keep a
    # minority of fast or slow stretches from moving the means.
    p90 = statistics.quantiles(latencies, n=10)[-1]
    metrics = {
        "ops_per_s": (statistics.median(round_rates), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "cpu_ms_per_op": (statistics.median(round_cpu), "ms"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
        "setup_s": (statistics.median(imports), "s"),
    }
    return tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "lampk" / "cli.py").is_file():
        print("clibench: run from the root of a lampk source tree "
              "(src/lampk/cli.py not found)", file=sys.stderr)
        return 2
    with Launcher(src) as launcher:
        if args.trace:
            import layers

            result = layers.traced(args.workload, args.seed, args.seconds, src, launcher)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, launcher)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
