"""Run the benchmark over several seeds and report each metric's spread.

    python3 clibench/sweep.py --seeds 1-10 --seconds 30 [--out bench-results/sweep.jsonl]

Each run is a separate ``clibench/run.py --trace 0`` process, exactly as a
single run is made, over every workload in turn.  For every workload and metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  It also prints
the share of failed invocations, which must be the same in every run.
``--out`` appends every run's result as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).with_name("run.py")


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    for workload in WORKLOADS:
        results = []
        for seed in args.seeds:
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--seconds", args.seconds, "--trace", "0"]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            results.append(result)
            figures = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {figures}",
                  flush=True)
            if args.out:
                args.out.parent.mkdir(parents=True, exist_ok=True)
                with args.out.open("a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {workload:12s} {name:28s} median={median:<12.5g} "
                  f"q1={q1:<12.5g} q3={q3:<12.5g} spread={spread:.4f}")
        shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in results})
        print(f"  {workload:12s} failed share: {', '.join(shares)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
