"""Check that the traced counts repeat exactly between two runs of one seed.

    python3 perfbench/repeat_counts.py --workload fem_solve --seed 1 [--reduced]

Runs `run.py --trace 1 --seconds 0` twice, each in a fresh process, and compares every
count-valued per-layer metric (units count, bytes and flop: the band
computations, Newton iterations, IVP calls and all `.calls`).  Prints each
count that differs; exits 1 if any does, so it is not used as a count.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent


def traced_counts(args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "1"] + (["--reduced"] if args.reduced else [])
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=HERE.parent)
    path = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace1.json"
    metrics = json.loads(path.read_text())["metrics"]
    return {name: metrics[name] for name, unit in tracer.LAYER_METRICS if unit in tracer.COUNT_UNITS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reduced", action="store_true")
    args = ap.parse_args()
    first, second = traced_counts(args), traced_counts(args)
    differ = [name for name in first if first[name] != second[name]]
    for name in differ:
        print(f"DIFFERS {name}: {first[name]} vs {second[name]}")
    print(f"{len(first) - len(differ)} of {len(first)} counts repeat exactly "
          f"on {args.workload} seed {args.seed}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
