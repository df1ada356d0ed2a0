"""Checks that two traced runs with one seed report identical layer counts.

    python3 perfbench/selfcheck.py --workload NAME [--seed N]

Runs ``run.py --trace 1`` twice, one process after the other, and compares
the counts listed in ``tracing.REPEATABLE``.  Exits 0 when they all match.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import REPEATABLE
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in REPEATABLE}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    for name in REPEATABLE:
        status = "same" if first[name] == second[name] else "DIFFERENT"
        print(f"{name}: {first[name]} / {second[name]} {status}")
    same = first == second
    print(f"{args.workload} seed {args.seed}: counts {'repeat' if same else 'DO NOT repeat'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
