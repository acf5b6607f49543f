"""The benchmark workloads: seeded inputs, one operation each, and checks.

Every workload is a closed loop: one client in one process starts the next
operation only after the previous one returned.  Library calls go through the
submodule attributes (`solver.newton_solve`, not `wedgeflow.newton_solve`) so
that the tracer's wrappers see them.

Each checked operation gets one status:
  "ok"    -- returned, converged and passed every correctness check;
  "fail"  -- raised, or the program itself reported non-convergence / a
             non-zero exit (the program flagged it);
  "wrong" -- returned a result that misses a correctness check.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from wedgeflow import analysis, basis, cli, meshing, shooting, solver

#: The three published (Re, alpha in degrees) cases and their pressure constants.
ANCHORS = ((30.0, 15.0), (110.0, 3.0), (-80.0, 5.0))
K_PUBLISHED = {
    (30.0, 15.0): -9.7822146449,
    (110.0, 3.0): -1.4387160807e2,
    (-80.0, 5.0): 2.5439853775e2,
}
K_FEM_RTOL = 1e-6
K_ORACLE_RTOL = 1e-8
FP1_RTOL = 1e-6  # FEM vs oracle f'(1), relative; worst seen at N >= 320 is 3e-8
RANGE_TOL = 1e-12  # 0 <= f <= 1 up to roundoff
SAMPLE_ETAS = np.linspace(0.0, 1.0, 41)


@dataclass(frozen=True)
class Case:
    re: float
    alpha_deg: float
    anchor: tuple | None  # the published case this is, or None for a neighbour

    @property
    def problem(self):
        return solver.JhProblem(self.re, math.radians(self.alpha_deg))

    @property
    def label(self) -> str:
        return f"re{self.re:.6g}_a{self.alpha_deg:.6g}"


def make_cases(rng: random.Random, per_anchor: int) -> list[Case]:
    """The anchors plus `per_anchor` neighbours each, Re and alpha scaled by U[0.9, 1.1]."""
    cases = [Case(re, a, (re, a)) for re, a in ANCHORS]
    for re, a in ANCHORS:
        for _ in range(per_anchor):
            cases.append(Case(re * rng.uniform(0.9, 1.1), a * rng.uniform(0.9, 1.1), None))
    return cases


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _in_unit_range(values) -> bool:
    values = np.asarray(values)
    return bool(np.all(values >= -RANGE_TOL) and np.all(values <= 1.0 + RANGE_TOL))


class Workload:
    """One pass is `ops`; `warmup` is its first operation.

    A run makes at least `min_passes` passes.
    """

    name = ""
    min_passes = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ops: list = []
        self.warmup = None

    def op_name(self, op) -> str:
        raise NotImplementedError

    def run_op(self, op, in_process: bool = False):
        raise NotImplementedError

    def check_pass(self, results) -> list[str]:
        """Statuses for [(op, result or exception)] of one pass, in order."""
        return [
            "fail" if isinstance(res, Exception) else self.check_op(op, res)
            for op, res in results
        ]

    def check_op(self, op, res) -> str:
        raise NotImplementedError


class FemSolve(Workload):
    """`newton_solve` over (case, p, N) cells; the anchors plus one neighbour each."""

    name = "fem_solve"
    # A pass takes 10-15 s on a 2-core x86_64 box.  From three passes on, the
    # tail, the 11th-largest latency, lies among the p=5 N=640 solves.
    min_passes = 3
    CELLS = ((3, 320), (3, 2560), (4, 320), (4, 640), (5, 320), (5, 640))
    REDUCED_CELLS = ((3, 160), (4, 40), (5, 40))

    def __init__(self, seed: int, reduced: bool):
        super().__init__(seed)
        cells = self.REDUCED_CELLS if reduced else self.CELLS
        cases = make_cases(self.rng, 1)
        if reduced:
            cases = [cases[0], cases[3]]
        self.ops = [(case, p, n) for case in cases for p, n in cells]
        self.warmup = self.ops[0]
        self._oracle = {}

    def op_name(self, op) -> str:
        case, p, n = op
        return f"fem_solve:{case.label}:p{p}:N{n}"

    def run_op(self, op, in_process: bool = False):
        case, p, n = op
        return solver.newton_solve(case.problem, meshing.build_mesh(n), basis.hermite_family(p))

    def _oracle_fp1(self, case: Case) -> float:
        """The oracle's f'(1) for `case`, shot once; its own K is checked on anchors."""
        if case not in self._oracle:
            ref = shooting.shoot(case.problem)
            ok = _in_unit_range(ref.states[:, 0])
            if case.anchor is not None:
                k_orc = analysis.compute_K(case.problem, ref.fp_right())
                ok &= _rel(k_orc, K_PUBLISHED[case.anchor]) < K_ORACLE_RTOL
            self._oracle[case] = ref.fp_right() if ok else math.nan
        return self._oracle[case]

    def check_op(self, op, fem) -> str:
        case, _p, _n = op
        if not fem.converged:
            return "fail"
        fp1 = fem.fp_right()
        ok = _in_unit_range(fem.evaluate(SAMPLE_ETAS)[0])
        ok &= _rel(fp1, self._oracle_fp1(case)) < FP1_RTOL  # False for a failed oracle check
        if case.anchor is not None:
            ok &= _rel(analysis.compute_K(case.problem, fp1), K_PUBLISHED[case.anchor]) < K_FEM_RTOL
        return "ok" if ok else "wrong"


#: Starts the CLI the way the `wedgeflow` console script does.
CLI_LAUNCH = "import sys; from wedgeflow.cli import main; sys.argv[0] = 'wedgeflow'; main()"


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    maxrss_kb: int  # 0 for in-process runs


class CliCold(Workload):
    """One fresh `wedgeflow` process per command, in the user's environment."""

    name = "cli_cold"
    # `convergence`, the slowest command by far, runs on two neighbours per
    # pass.  With k passes the tail, the 11th-largest of 6k latencies, falls
    # among the 2k `convergence` latencies once k >= 6, for about half the
    # cost of reaching 11 of them with one per pass.  The repeats also serve
    # the byte-identical stdout check.
    min_passes = 6

    def __init__(self, seed: int, reduced: bool, env: dict):
        super().__init__(seed)
        nbrs = make_cases(self.rng, 1)[3:]

        def case_args(c: Case):
            return ["--re", f"{c.re:.6f}", "--alpha-deg", f"{c.alpha_deg:.6f}"]

        small = ["--nelem", "40"] if reduced else []
        self.ops = [
            ("solve", ["solve", *case_args(nbrs[0]), *small]),
            ("table", ["table", "--output", "csv", *case_args(nbrs[1]), *small]),
            *(("convergence", ["convergence", *case_args(c),
                               *(["--nelems", "10,20,40"] if reduced else [])])
              for c in (nbrs[2], nbrs[0])),
            ("model", ["model", "--formulation", "least-squares",
                       *(["--orders", "1..2"] if reduced else [])]),
            ("check", ["check"]),
        ]
        self.warmup = self.ops[0]
        self.env = env
        self._stdout = {}  # argv -> stdout of its first run

    def op_name(self, op) -> str:
        return f"cli.{op[0]}"

    def run_op(self, op, in_process: bool = False):
        _cmd, argv = op
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(list(argv))
            return CliResult(rc, out.getvalue().encode(), 0)
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_LAUNCH, *argv],
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        with proc.stdout:
            stdout = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, stdout, usage.ru_maxrss)

    @staticmethod
    def rates_ok(cmd: str, stdout: bytes) -> bool:
        """The p=3 H1 rate of `convergence` (2 +- 0.3) and the optimal least-squares
        rates of `model` for p <= 4 (p+1 in L2, p in H1, each +- 0.25), fitted from
        the CSV tables on stdout the way the CLI fits the rates it prints on stderr.

        At p=5 the CLI's default Newton tolerance (1e-12) floors the N=128 L2
        error near 1e-13, and the fitted L2 rate reads about 5.4, not 6; the
        acceptance tests check p=5 through the library at tolerance 1e-14.
        """
        tables, rows = {}, None
        for line in stdout.decode().splitlines():
            if line.startswith("# "):  # "# p3" or "# least_squares_p3"
                rows = tables.setdefault(int(line.rsplit("p", 1)[1]), [])
            elif rows is not None and line[:1].isdigit():
                n_elem, _nodes, l2, h1 = line.split(",")
                rows.append(SimpleNamespace(n_elem=int(n_elem), l2=float(l2), h1=float(h1)))
        slopes = {p: analysis.fit_rates(rows) for p, rows in tables.items()}
        if cmd == "convergence":
            return 3 in slopes and abs(slopes[3][1] - 2.0) < 0.3
        return bool(slopes) and all(
            abs(l2 - (p + 1)) < 0.25 and abs(h1 - p) < 0.25
            for p, (l2, h1) in slopes.items() if p <= 4
        )

    def check_op(self, op, res: CliResult) -> str:
        cmd, argv = op
        if res.returncode != 0:
            return "fail"
        first = self._stdout.setdefault(tuple(argv), res.stdout)
        ok = res.stdout == first
        if cmd == "check":
            ok &= not any(line.startswith(b"FAIL") for line in res.stdout.splitlines())
        if cmd in ("convergence", "model"):
            ok &= self.rates_ok(cmd, res.stdout)
        return "ok" if ok else "wrong"


WORKLOADS = ("fem_solve", "cli_cold")


def user_env(src_dir: str) -> dict:
    """The caller's environment with `JH_THREADS` unset and `src_dir` importable."""
    env = dict(os.environ)
    env.pop("JH_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def make(name: str, seed: int, reduced: bool, env: dict) -> Workload:
    """`env` is the environment for the CLI subprocesses of `cli_cold`."""
    if name == "fem_solve":
        return FemSolve(seed, reduced)
    if name == "cli_cold":
        return CliCold(seed, reduced, env)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
