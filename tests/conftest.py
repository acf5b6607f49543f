"""Shared fixtures: the expensive reference solves run once per session."""

import math
import os
import subprocess
import sys

import pytest

import wedgeflow as wf

# The three benchmark (Re, alpha_deg) cases.
CASES = ((30.0, 15.0), (110.0, 3.0), (-80.0, 5.0))

# Every supported element family: Hermite p=3..5 and hierarchic p=1..5.
FAMILIES = [wf.hermite_family(p) for p in (3, 4, 5)] + [
    wf.hierarchic_family(p) for p in (1, 2, 3, 4, 5)
]

JH_MESHES = (20, 40, 80, 160, 320)
MODEL_MESHES = (8, 16, 32, 64, 128)


def make_problem(re, alpha_deg, fluid=None):
    return wf.JhProblem(re, math.radians(alpha_deg), fluid)


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports this wedgeflow checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )


@pytest.fixture(scope="session")
def oracles():
    """Shooting reference solutions for all three cases at default settings."""
    return {case: wf.shoot(make_problem(*case)) for case in CASES}


@pytest.fixture(scope="session")
def fine_solutions():
    """(problem, FemSolution) at N=320, p=4 for all three cases."""
    out = {}
    for case in CASES:
        prob = make_problem(*case)
        fem = wf.newton_solve(prob, wf.build_mesh(320), wf.hermite_family(4))
        assert fem.converged
        out[case] = (prob, fem)
    return out


@pytest.fixture(scope="session")
def jh_reports(oracles):
    """Refinement studies: one ConvergenceReport per (case, degree in {3, 4})."""
    out = {}
    for case in CASES:
        prob = make_problem(*case)
        ref = oracles[case]
        for p in (3, 4):
            rows = []
            for n in JH_MESHES:
                fem = wf.newton_solve(prob, wf.build_mesh(n), wf.hermite_family(p))
                assert fem.converged
                rows.append(wf.error_norms(fem, ref, wf.gauss_legendre(p + 4)))
            out[case, p] = wf.make_report(f"re{case[0]:g}_alpha{case[1]:g}", p, rows)
    return out


@pytest.fixture(scope="session")
def model_reports():
    """Model-problem studies: ConvergenceReport per (formulation, degree)."""
    out = {}
    for form in (wf.GALERKIN, wf.LEAST_SQUARES):
        for rep in wf.model_convergence((1, 2, 3, 4, 5), MODEL_MESHES, form):
            out[form, rep.degree] = rep
    return out
