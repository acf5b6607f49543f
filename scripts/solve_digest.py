#!/usr/bin/env python3
"""Print two sha256 digests: one over the bits of a grid of wedge-flow solves,
one over the output of a set of CLI commands.

Line 1: for (Re, half-angle) = (30, 15 deg), (-80, 5 deg) and (0, 15 deg),
Hermite degree p = 3..5 and N = 1, 2, 7, 160, 320, 2560 elements, the digest
covers each solve's coefficients, Newton step count, stop reason and residual
history, its L2/H1 errors against the shooting solution, and (f, f', f'') at
17 equispaced points.

Line 2: the argv, stdout, stderr and exit code of the 21 `wedgeflow`
commands in CLI_RUNS (solve x6, table x3, fields x3, convergence x3, model x2,
check x2 and reference x2), run in this process through `cli.run`.  Between
them they cover every format (csv, json, pretty) of the CLI's table writer.

Two builds that print the same lines return the same results bit for bit on
this grid and print the same bytes for these commands; a change that is
meant to leave every result unchanged (a faster kernel, a cache) can be
checked by running this script before and after it, on the same machine.

    PYTHONPATH=src python scripts/solve_digest.py
"""

import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import wedgeflow as wf
from wedgeflow import cli

CASES = ((30.0, 15.0), (-80.0, 5.0), (0.0, 15.0))
DEGREES = (3, 4, 5)
N_ELEMS = (1, 2, 7, 160, 320, 2560)
EVAL_POINTS = np.linspace(0.0, 1.0, 17)
ERROR_RULE = wf.gauss_legendre(8)  # exactness 15 >= 2p + 4 for p <= 5

ANCHOR = ["--re", "30", "--alpha-deg", "15"]
REVERSE = ["--re", "-80", "--alpha-deg", "5"]
FIELDS = ["fields", *ANCHOR, "--r1", "1", "--r2", "2", "--nr", "3", "--ntheta", "5",
          "--nu", "1e-6", "--rho", "1000"]
CLI_RUNS = (
    ["solve"],
    ["solve", *ANCHOR, "--order", "3", "--nelem", "2560"],
    ["solve", *ANCHOR, "--order", "5", "--nelem", "2560"],
    ["solve", *REVERSE, "--order", "4", "--nelem", "1280"],
    ["solve", "--re", "110", "--alpha-deg", "3", "--output", "json"],
    ["solve", *ANCHOR, "--order", "3", "--nelem", "7", "--output", "csv"],
    ["table", *ANCHOR],
    ["table", *REVERSE, "--order", "5", "--eta-step", "0.05", "--output", "csv"],
    ["table", *ANCHOR, "--output", "json"],
    FIELDS,
    [*FIELDS, "--output", "csv"],
    [*FIELDS, "--output", "json"],
    ["convergence"],
    ["convergence", *ANCHOR, "--orders", "3,4,5", "--nelems", "10,20,40"],
    ["convergence", *REVERSE, "--nelems", "20,40,80", "--output", "json"],
    ["model"],
    ["model", "--formulation", "least-squares", "--output", "json"],
    ["check"],
    ["check", *REVERSE, "--order", "5", "--nelem", "1280"],
    ["reference", *ANCHOR],
    ["reference", *ANCHOR, "--output", "json"],
)


def solve_bytes(prob, ref, p: int, n: int) -> bytes:
    """The bits of one solve and of what is computed from it."""
    try:
        fem = wf.newton_solve(prob, wf.build_mesh(n), wf.hermite_family(p))
    except wf.SingularMatrixError as exc:
        return f"SingularMatrixError: {exc}".encode()
    err = wf.error_norms(fem, ref, ERROR_RULE)
    parts = [
        np.asarray(fem.coeffs, dtype=np.float64).tobytes(),
        f"{fem.newton_iters} {fem.stop_reason} {fem.converged}".encode(),
        np.asarray(fem.norm_history, dtype=np.float64).tobytes(),
        np.array([fem.final_residual_norm, err.l2, err.h1]).tobytes(),
    ]
    parts += [np.asarray(a, dtype=np.float64).tobytes() for a in fem.evaluate(EVAL_POINTS)]
    return b"|".join(parts)


def cli_bytes(argv: list) -> bytes:
    """The argv, stdout, stderr and exit code of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return "\0".join([" ".join(argv), out.getvalue(), err.getvalue(), str(code)]).encode()


def main():
    total = hashlib.sha256()
    for re_val, alpha_deg in CASES:
        prob = wf.JhProblem(re_val, math.radians(alpha_deg))
        ref = wf.shoot(prob)
        for p in DEGREES:
            for n in N_ELEMS:
                total.update(solve_bytes(prob, ref, p, n))
    print(total.hexdigest())
    runs = hashlib.sha256()
    for argv in CLI_RUNS:
        runs.update(cli_bytes(argv) + b"\n")
    print(runs.hexdigest())


if __name__ == "__main__":
    main()
