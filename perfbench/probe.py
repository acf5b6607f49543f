"""Fresh-interpreter probe for the benchmark's set-up time.

    python3 perfbench/probe.py <workload> <seed> <reduced 0|1>

imports wedgeflow, builds the workload's seeded inputs, runs its first
operation and then prints one line, `ready`.  The parent times the interval
from starting this process to reading that line (`setup_s`).
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    name, seed, reduced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.make(name, seed, reduced, workloads.user_env(str(SRC)))
    wl.run_op(wl.warmup)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
