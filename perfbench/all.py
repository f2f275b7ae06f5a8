"""Run every workload in turn and print each one's report.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process (run.py), one after another, so peak
RSS and CPU time are per workload. Exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=300,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
            print(f"  {name}: FAILED (exit {proc.returncode})")
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
