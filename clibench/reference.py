"""Reference figures: a few single commands, each timed cold.

    python3 clibench/reference.py

Run from the root of a lampk source tree.  Every command goes through the
benchmark's launcher; the table gives the median wall time over REPEATS
runs (after one untimed run), the stdout size and the max-RSS.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import Launcher

REPEATS = 15
C3_CYLINDER = json.dumps({str(p): 0 for p in range(8)})
COMMANDS = (
    ("bare interpreter", ["-c", "pass"]),
    ("import lampk.cli", ["-c", "import lampk.cli"]),
    ("k1", ["-m", "lampk.cli", "k1", "--group", "S3"]),
    ("claim-check C2:7", ["-m", "lampk.cli", "claim-check", "--group", "C2", "--levels", "7"]),
    ("cylinder-expand C3, 8 trivial",
     ["-m", "lampk.cli", "cylinder-expand", "--group", "C3", "--spec", C3_CYLINDER]),
    ("pv-check C2, 1000 samples",
     ["-m", "lampk.cli", "pv-check", "--group", "C2", "--samples", "1000"]),
)


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "lampk" / "cli.py").is_file():
        print("run from the root of a lampk source tree", file=sys.stderr)
        return 2
    print("| Command | Median wall (ms) | stdout (bytes) | max-RSS (MB) |")
    print("|---|---|---|---|")
    with Launcher(src) as launcher:
        for label, argv in COMMANDS:
            launcher.run([sys.executable, *argv])
            runs = [launcher.run([sys.executable, *argv]) for _ in range(REPEATS)]
            if any(inv.code != 0 for inv in runs):
                print(f"{label} failed: {runs[0].stderr[-300:]}", file=sys.stderr)
                return 1
            wall = statistics.median(inv.wall_s for inv in runs) * 1000
            rss = max(inv.maxrss_kb for inv in runs) / 1024
            print(f"| {label} | {wall:.0f} | {len(runs[0].stdout.encode())} | {rss:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
