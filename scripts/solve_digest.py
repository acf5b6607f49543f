#!/usr/bin/env python3
"""Print one sha256 digest over the bits of a grid of wedge-flow solves.

For (Re, half-angle) = (30, 15 deg), (-80, 5 deg) and (0, 15 deg), Hermite
degree p = 3..5 and N = 1, 2, 7, 160, 320, 2560 elements, the digest covers
each solve's coefficients, Newton step count, stop reason and residual
history, its L2/H1 errors against the shooting solution, and (f, f', f'')
at 17 equispaced points.  Two builds that print the same digest return the
same results bit for bit on this grid; a change that is meant to leave every
result unchanged (a faster kernel, a cache) can be checked by running this
script before and after it, on the same machine.

    PYTHONPATH=src python scripts/solve_digest.py
"""

import hashlib
import math

import numpy as np

import wedgeflow as wf

CASES = ((30.0, 15.0), (-80.0, 5.0), (0.0, 15.0))
DEGREES = (3, 4, 5)
N_ELEMS = (1, 2, 7, 160, 320, 2560)
EVAL_POINTS = np.linspace(0.0, 1.0, 17)
ERROR_RULE = wf.gauss_legendre(8)  # exactness 15 >= 2p + 4 for p <= 5


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


def main():
    total = hashlib.sha256()
    for re_val, alpha_deg in CASES:
        prob = wf.JhProblem(re_val, math.radians(alpha_deg))
        ref = wf.shoot(prob)
        for p in DEGREES:
            for n in N_ELEMS:
                total.update(solve_bytes(prob, ref, p, n))
    print(total.hexdigest())


if __name__ == "__main__":
    main()
