"""wedgeflow benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fem_solve --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

`--trace 0` measures the end-to-end metrics untraced; `--trace 1` runs
untraced and traced passes in alternation and reports the per-layer metrics
and the tracing overhead.  Passes repeat while one more still ends within
`--seconds`, and at least until there are enough operations for a tail
percentile.  Every operation's result is checked.  The last stdout line is one JSON object with the metrics named
in BENCHMARK.json; human-readable lines and the machine facts come before it,
and the full record and the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3  # fresh-interpreter set-ups per run; setup_s is their median
MIN_TAIL_OPS = 11  # a tail percentile needs at least ten operations beyond it
MIN_OPS = 21  # with ten operations beyond the tail, the tail sits above the median
MIN_TRACED_PASSES = 2  # counts are compared between two traced passes
#: Units of what each mode computes; they must match BENCHMARK.json.
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_s.p50": "s", "op_s.tail": "s",
             "ok_ratio": "ratio", "peak_rss_mb": "MiB"}
TRACE_UNITS = {"cli.interpreter_s": "s", "cli.import_s": "s", "trace.pass_s": "s",
               "trace.span_self_sum_s": "s", "trace.op_self_s": "s", "trace.uncovered_s": "s",
               "trace.overhead_ratio": "ratio", "trace.nonrepeating_counts": "count"}
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "JH_THREADS",
)


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path.name} not found at the repository root")
    return json.loads(path.read_text())


def use_source_tree():
    """Import wedgeflow from this checkout's src/, and nothing else."""
    if not (SRC / "wedgeflow" / "__init__.py").is_file():
        die("no wedgeflow sources under src/; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import wedgeflow

    if Path(wedgeflow.__file__).resolve().parent != (SRC / "wedgeflow").resolve():
        die(f"imported wedgeflow from {wedgeflow.__file__}, not from src/")


def machine_facts() -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "thread_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


# -- statistics ----------------------------------------------------------


def tail(values):
    """(value, percentile, n) at the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no such percentile exists and the maximum is
    returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    i = n - MIN_TAIL_OPS if n >= MIN_TAIL_OPS else n - 1
    return xs[i], 100.0 * (i + 1) / n, n


# -- fresh-process probes --------------------------------------------------


def _child_env() -> dict:
    import workloads

    return workloads.user_env(str(SRC))


def time_setup(workload: str, seed: int, reduced: bool) -> float:
    """Seconds from starting a fresh interpreter until its first operation completed."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), "1" if reduced else "0"]
    env = _child_env()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.wait() != 0 or line.strip() != b"ready":
        die(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def time_command(code: str) -> float:
    env = _child_env()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


# -- passes ----------------------------------------------------------------


@dataclass
class Pass:
    wall: float
    latencies: list  # seconds per operation, in pass order
    statuses: list  # "ok", "fail" or "wrong" per operation
    maxrss_kb: int  # largest ru_maxrss of the pass's CLI subprocesses, else 0


def run_pass(wl, in_process: bool, tracer=None) -> Pass:
    """Run every operation of one pass in order, then check the results.

    The results are dropped once checked, so that this process's ru_maxrss
    is the program's working set and not what the harness has accumulated.
    """
    results, latencies = [], []
    t_pass = time.perf_counter()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = wl.run_op(op, in_process)
            else:
                with tracer.operation(wl.op_name(op)):
                    res = wl.run_op(op, in_process)
        except Exception as exc:  # a raising operation is counted as failed
            print(f"  {wl.op_name(op)} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            res = exc
        latencies.append(time.perf_counter() - t0)
        results.append((op, res))
    wall = time.perf_counter() - t_pass
    statuses = wl.check_pass(results)
    for (op, _res), status in zip(results, statuses):
        if status == "wrong":
            print(f"  {wl.op_name(op)} missed its correctness check", file=sys.stderr)
    rss_kb = max(getattr(res, "maxrss_kb", 0) for _op, res in results)
    return Pass(wall, latencies, statuses, rss_kb)


def more(passes, seconds: float, elapsed: float, min_ops: int, min_passes: int, step: int = 1) -> bool:
    """Whether to start another step of `step` passes.

    Until the minimums are met, always; after that, while one more step of
    median pass length still ends within `seconds`, so that a run measures for
    about `seconds` and never much longer.
    """
    n_ops = sum(len(p.latencies) for p in passes)
    if len(passes) < max(min_passes, 1) or n_ops < min_ops:
        return True
    return elapsed + step * statistics.median(p.wall for p in passes) <= seconds


def status_counts(passes) -> dict:
    statuses = [s for p in passes for s in p.statuses]
    return {
        "attempted": len(statuses),
        "fail": statuses.count("fail"),
        "wrong": statuses.count("wrong"),
        "ok": statuses.count("ok"),
    }


# -- the two run modes -------------------------------------------------------


def end_to_end(workloads, name: str, seed: int, seconds: float, reduced: bool):
    setups = [time_setup(name, seed, reduced) for _ in range(SETUP_PROBES)]
    wl = workloads.make(name, seed, reduced, _child_env())
    warm_rss_kb = getattr(wl.run_op(wl.warmup), "maxrss_kb", 0)
    passes = []
    t_start = time.perf_counter()
    while not passes or (
        not reduced and more(passes, seconds, time.perf_counter() - t_start, MIN_OPS, wl.min_passes)
    ):
        passes.append(run_pass(wl, in_process=False))
    latencies = [x for p in passes for x in p.latencies]
    if name == "cli_cold":  # the workload runs in the CLI subprocesses
        rss_kb = max([warm_rss_kb] + [p.maxrss_kb for p in passes])
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counts = status_counts(passes)
    tail_value, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p.wall for p in passes),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": tail_value,
        "ok_ratio": counts["ok"] / counts["attempted"],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh starts: " + ", ".join(f"{s:.4f}" for s in setups),
        "pass_s": f"median of {len(passes)} passes of {len(wl.ops)} ops: "
                  + ", ".join(f"{p.wall:.4f}" for p in passes),
        "op_s.p50": f"median of {n} ops",
        "op_s.tail": f"p{tail_pct:.1f} of {n} ops",
        "ok_ratio": "1 - fail_ratio",
        "fail_ratio": "{} failed of {}: {} flagged by the program, {} wrong".format(
            counts["fail"] + counts["wrong"], counts["attempted"], counts["fail"], counts["wrong"]),
        "peak_rss_mb": "ru_maxrss of " + ("the CLI subprocesses" if name == "cli_cold" else "this process"),
    }
    extra = {"fail_ratio": 1 - metrics["ok_ratio"], "op_s.tail.percentile": tail_pct, "op_s.samples": n,
             "passes": len(passes)}
    return metrics, notes, counts, extra, None


def traced(workloads, name: str, seed: int, seconds: float, reduced: bool):
    import tracer as tracing

    interp = [time_command("pass") for _ in range(SETUP_PROBES)]
    imports = [time_command("import wedgeflow") for _ in range(SETUP_PROBES)]
    os.environ.pop("JH_THREADS", None)  # in-process CLI runs see the user's default
    wl = workloads.make(name, seed, reduced, _child_env())
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        run_pass(wl, in_process=True)  # unmeasured: fills caches so pass 1 is not special
        plain, traced_passes, per_pass = [], [], []
        t_start = time.perf_counter()
        while more(traced_passes, seconds, time.perf_counter() - t_start, 0, MIN_TRACED_PASSES, step=2):
            plain.append(run_pass(wl, in_process=True))
            n_spans, n_events = len(tr.spans), len(tr.events)
            p = run_pass(wl, in_process=True, tracer=tr)
            traced_passes.append(p)
            spans = tr.spans[n_spans:]
            m = tracing.layer_metrics(spans, tr.events[n_events:])
            m["trace.uncovered_s"] = p.wall - sum(s.end - s.start for s in spans if s.parent_id is None)
            m["trace.pass_s"] = p.wall
            per_pass.append(m)
    finally:
        tr.restore()
    units = dict(tracing.LAYER_METRICS)
    metrics, nonrepeating = {}, []
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if units.get(key) in tracing.COUNT_UNITS:
            metrics[key] = values[0]
            if len(set(values)) > 1:
                nonrepeating.append(key)
        else:
            metrics[key] = statistics.median(values)
    metrics["cli.interpreter_s"] = statistics.median(interp)
    metrics["cli.import_s"] = statistics.median(imports) - metrics["cli.interpreter_s"]
    plain_s = statistics.median(p.wall for p in plain)
    metrics["trace.overhead_ratio"] = metrics["trace.pass_s"] / plain_s - 1.0
    metrics["trace.nonrepeating_counts"] = len(nonrepeating)
    counts = status_counts(plain + traced_passes)
    notes = {
        "trace.pass_s": f"median of {len(traced_passes)} traced passes; untraced median {plain_s:.4f} s",
        "trace.span_self_sum_s": "sum of every span's self time (worker-thread spans may overlap)",
        "trace.uncovered_s": "traced pass wall time outside any operation span",
        "trace.nonrepeating_counts": ", ".join(nonrepeating) or "every count repeated exactly",
    }
    spans_out = [
        {"id": s.span_id, "parent": s.parent_id, "op": s.op_id, "name": s.name,
         "start": s.start, "end": s.end, "thread": s.thread}
        for s in tr.spans
    ]
    extra = {"nonrepeating_counts": nonrepeating,
             "passes": f"{len(traced_passes)} traced and {len(plain)} untraced"}
    return metrics, notes, counts, extra, spans_out


# -- smoke mode --------------------------------------------------------------


def smoke(spec: dict) -> int:
    """Run each workload once on reduced inputs, traced and untraced, and check
    that every metric BENCHMARK.json names is reported as a finite number.

    main() itself stops a run whose computed units differ from BENCHMARK.json.
    """
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1",
                   "--seconds", "0", "--trace", str(trace), "--reduced"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
                problems.append(f"no result line (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            if result is not None:
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                got = result.get("metrics", {})
                for mname in want:
                    entry = got.get(mname)
                    if entry is None:
                        problems.append(f"missing {mname}")
                    elif not math.isfinite(entry.get("value", math.nan)):
                        problems.append(f"{mname} = {entry}")
                problems += [f"unexpected {k}" for k in got if k not in want]
                if result.get("correct") is not True or result.get("attempted", 0) < 1:
                    problems.append("correct is not true or nothing attempted")
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            ok &= not problems
            print(f"{'PASS' if not problems else 'FAIL'} smoke {w['name']} trace={trace}"
                  + (": " + "; ".join(problems) if problems else ""))
    return 0 if ok else 1


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true", help="one pass over a reduced input set")
    ap.add_argument("--smoke", action="store_true", help="check every workload's metric set, then exit")
    args = ap.parse_args(argv)

    spec = load_spec()
    use_source_tree()
    if args.smoke:
        return smoke(spec)
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"--workload must be one of {', '.join(names)}")
    run = traced if args.trace else end_to_end
    metrics, notes, counts, extra, spans = run(workloads, args.workload, args.seed, args.seconds,
                                               args.reduced)
    facts = machine_facts()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        import tracer as tracing

        units = {**dict(tracing.LAYER_METRICS), **TRACE_UNITS}
    else:
        units = E2E_UNITS
    wrong = [m["name"] for m in wanted if m["name"] not in metrics or units.get(m["name"]) != m["unit"]]
    if wrong:
        die(f"metrics not computed with the unit BENCHMARK.json names: {', '.join(wrong)}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{extra['passes']} passes, {counts['attempted']} ops")
    for key in sorted(metrics):
        print(f"  {key:34s} {metrics[key]:<14.6g} {units[key]:6s} {notes.get(key, '')}")
    if not args.trace:
        print(f"  {'fail_ratio':34s} {extra['fail_ratio']:<14.6g} {'ratio':6s} {notes['fail_ratio']}")
    print("machine " + json.dumps(facts, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "reduced": args.reduced, "metrics": metrics, "notes": notes, "statuses": counts,
              "extra": extra, "machine": facts}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")

    result = {
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["fail"] + counts["wrong"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
