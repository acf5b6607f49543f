"""Command-line front end: solves, reference trajectories, tables, studies, fields."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .analysis import (
    WedgeFieldConfig,
    compute_K,
    duality_pairing_check,
    error_norms,
    make_report,
    wedge_fields,
)
from .basis import HERMITE, ElementFamily, hermite_family
from .meshing import build_dofmap, build_mesh, jh_constraints
# `solve_model` and `evaluate_reference` are not called here; they stay
# attributes of this module because perfbench/tracer.py wraps them at `cli` too.
from .model_problem import GALERKIN, LEAST_SQUARES, model_convergence, solve_model  # noqa: F401
from .quadrature import gauss_legendre, required_points
from .shooting import ShootingError, check_end_tol, evaluate_reference, shoot  # noqa: F401
from .solver import (
    FluidProps,
    JhProblem,
    SingularMatrixError,
    SolverOptions,
    assemble_jacobian,
    assemble_residual,
    newton_solve,
)

CSV_FMT = "{:.16e}"  # 17 significant digits
PRETTY_FMT = "{:.10e}"  # 11 significant digits
MAX_ROWS = 10**6  # `table` and `fields` rows are bounded before the solve


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"no integers in list {text!r}")
    return values


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:  # `run` reports it as a usage error
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _problem(args) -> JhProblem:
    return JhProblem(args.re, math.radians(args.alpha_deg))


class NotConverged(RuntimeError):
    """Newton ended without converging; `run` reports it and exits 1."""


def _fem_solve(problem: JhProblem, order: int, nelem: int, opts: SolverOptions):
    """`newton_solve` on a uniform Hermite mesh; a `roundoff` stop gets a note on
    stderr, and a solve that does not converge raises `NotConverged`."""
    fem = newton_solve(problem, build_mesh(nelem), hermite_family(order), opts)
    if not fem.converged:
        history = "".join(f"\n  iter {i}: {rn:.3e}" for i, rn in enumerate(fem.norm_history))
        raise NotConverged(
            f"newton iteration did not converge at p={order}, N={nelem} "
            f"(stop reason: {fem.stop_reason}); residual-norm history:{history}"
        )
    if fem.stop_reason == "roundoff":
        print(
            "note: newton stopped on roundoff-level steps (stop reason: roundoff) "
            f"at p={order}, N={nelem}; residual {fem.final_residual_norm:.3e}, "
            f"--newton-tol {opts.tol:g}",
            file=sys.stderr,
        )
    return fem


def _rows(columns: dict):
    """The rows, as tuples of Python numbers, of a table of named columns (each a
    scalar, a list or an array)."""
    return zip(*(np.atleast_1d(c).tolist() for c in columns.values()))


def _cell(value, fmt: str) -> str:
    return fmt.format(value) if isinstance(value, float) else str(value)


def _records(columns: dict) -> list[dict]:
    return [dict(zip(columns, row)) for row in _rows(columns)]


def _csv_text(columns: dict) -> str:
    lines = [",".join(columns)]
    lines += [",".join(_cell(v, CSV_FMT) for v in row) for row in _rows(columns)]
    return "\n".join(lines) + "\n"


JSON_NAMES = {"nelem": "n_elem", "out": "out_path"}  # the "config" keys not named as flags


def _json_text(args, **body) -> str:
    """One JSON document: under "config" the command and each flag it takes, in the
    order the subcommand declares them, then `body`."""
    config = {"command": args.command}
    for action in args.parser._actions:
        if action.dest != "help":
            config[JSON_NAMES.get(action.dest, action.dest)] = getattr(args, action.dest)
    return json.dumps({"config": config, **body}, indent=2) + "\n"


def _table_text(columns: dict, args) -> str:
    """The table in the format `--output` names: csv, json rows, or aligned columns."""
    if args.output == "csv":
        return _csv_text(columns)
    if args.output == "json":
        return _json_text(args, rows=_records(columns))
    widths = [max(len(name), 18) for name in columns]
    lines = ["  ".join(name.rjust(w) for name, w in zip(columns, widths))]
    lines += [
        "  ".join(_cell(v, PRETTY_FMT).rjust(w) for v, w in zip(row, widths))
        for row in _rows(columns)
    ]
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    problem = _problem(args)
    fem = _fem_solve(problem, args.order, args.nelem, args.opts)
    fp1 = fem.fp_right()
    columns = {
        "re": args.re,
        "alpha_deg": args.alpha_deg,
        "order": args.order,
        "n_elem": args.nelem,
        "n_dofs": fem.dofmap.n_global,
        "n_constrained": fem.dofmap.fixed.size,
        "newton_iters": fem.newton_iters,
        "residual_norm": fem.final_residual_norm,
        "fp1": fp1,
        "K": compute_K(problem, fp1),
    }
    _emit(_table_text(columns, args), args.out)
    return 0


def cmd_reference(args) -> int:
    ref = shoot(_problem(args), end_tol=args.shoot_tol)
    f, fp, fpp = ref.states.T
    _emit(_table_text({"eta": ref.grid, "f": f, "fp": fp, "fpp": fpp}, args), args.out)
    return 0


def cmd_table(args) -> int:
    if not 0.0 < args.eta_step <= 1.0:
        return _usage_error(f"--eta-step must lie in (0, 1], got {args.eta_step}")
    n_steps = 1.0 / args.eta_step
    if n_steps > MAX_ROWS:  # also catches 1 / 5e-324 = inf
        return _usage_error(
            f"--eta-step must be at least {1 / MAX_ROWS:g} "
            f"(at most {MAX_ROWS} steps), got {args.eta_step}"
        )
    n_rows = round(n_steps)
    if abs(n_steps - n_rows) > 1e-9 * n_steps:
        return _usage_error(f"--eta-step must divide 1 into whole steps, got {args.eta_step}")
    fem = _fem_solve(_problem(args), args.order, args.nelem, args.opts)
    etas = np.linspace(0.0, 1.0, n_rows + 1)
    _emit(_table_text({"eta": etas, "f": fem.evaluate(etas)[0]}, args), args.out)
    return 0


def _suffixed_path(path: str, suffix: str) -> str:
    if not os.path.basename(path):  # a directory, as `open` finds for the other commands
        raise ValueError(f"cannot write {path}: Is a directory")
    root, ext = os.path.splitext(path)
    return f"{root}_{suffix}{ext or '.csv'}"


def _emit_reports(reports, labels, args) -> int:
    """One CSV table per report, and its slopes on stderr (stdout with --out);
    with `--output json`, one document holding every report."""
    studies = {}
    for report, label in zip(reports, labels):
        n_elem = np.array([row.n_elem for row in report.rows])
        columns = {
            "n_elem": n_elem,
            "n_nodes": n_elem + 1,
            "l2_error": [row.l2 for row in report.rows],
            "h1_error": [row.h1 for row in report.rows],
        }
        if args.output == "json":
            studies[label] = {
                "rows": _records(columns),
                "slope_l2": report.slope_l2,
                "slope_h1": report.slope_h1,
            }
            continue
        text = _csv_text(columns)
        if args.out:
            _emit(text, _suffixed_path(args.out, label))
        else:
            sys.stdout.write(f"# {label}\n{text}")
        print(
            f"{label}: slope_l2 = {report.slope_l2:.3f}, slope_h1 = {report.slope_h1:.3f}",
            file=sys.stderr if args.out is None else sys.stdout,
        )
    if args.output == "json":
        _emit(_json_text(args, reports=studies), args.out)
    return 0


def cmd_convergence(args) -> int:
    problem = _problem(args)
    orders = _parse_int_list(args.orders)
    nelems = sorted(_parse_int_list(args.nelems))
    ref = shoot(problem, end_tol=args.shoot_tol)
    reports = []
    for p in orders:
        rows = []
        for n in nelems:
            fem = _fem_solve(problem, p, n, args.opts)
            rows.append(error_norms(fem, ref, gauss_legendre(min(16, p + 4))))
        reports.append(make_report(f"re{args.re}_alpha{args.alpha_deg}", p, rows))
    return _emit_reports(reports, [f"p{p}" for p in orders], args)


def cmd_model(args) -> int:
    formulation = LEAST_SQUARES if args.formulation == "least-squares" else GALERKIN
    orders = _parse_int_list(args.orders)
    nelems = sorted(_parse_int_list(args.nelems))
    reports = model_convergence(orders, nelems, formulation, args.newton_tol)
    return _emit_reports(reports, [f"{formulation}_p{p}" for p in orders], args)


def cmd_fields(args) -> int:
    if not 0.0 < args.r1 <= args.r2 < math.inf:  # false for NaN too
        return _usage_error("need finite 0 < r1 <= r2")
    if not math.isfinite(args.pin):
        return _usage_error(f"--pin must be finite, got {args.pin}")
    if args.nr < 1 or args.ntheta < 2:
        return _usage_error("need nr >= 1 and ntheta >= 2")
    if args.nr * args.ntheta > MAX_ROWS:
        return _usage_error(f"need nr * ntheta <= {MAX_ROWS} points, got {args.nr * args.ntheta}")
    fluid = FluidProps(nu=args.nu, rho=args.rho)
    problem = JhProblem(args.re, math.radians(args.alpha_deg), fluid)
    fem = _fem_solve(problem, args.order, args.nelem, args.opts)
    k_val = compute_K(problem, fem.fp_right())
    cfg = WedgeFieldConfig(
        problem=problem, fluid=fluid, p_star=args.pin, K=k_val, lam=problem.lam
    )
    r = np.repeat(np.linspace(args.r1, args.r2, args.nr), args.ntheta)  # r-major
    theta = np.tile(np.linspace(-problem.alpha, problem.alpha, args.ntheta), args.nr)
    u_r, p = wedge_fields(cfg, fem, np.column_stack([r, theta])).T
    _emit(_table_text({"r": r, "theta": theta, "u_r": u_r, "p": p}, args), args.out)
    return 0


def cmd_check(args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        if not ok:
            failures += 1

    # quadrature exactness sweep
    worst = 0.0
    for n in range(1, 17):
        rule = gauss_legendre(n)
        for k in range(0, 2 * n):
            err = abs(rule.integrate(rule.points**k) - 1.0 / (k + 1))
            worst = max(worst, err)
    report("quadrature exactness", worst < 1e-13, f"max monomial error {worst:.2e}")

    # Jacobian vs finite differences on the requested case
    problem = _problem(args)
    mesh = build_mesh(min(args.nelem, 8))
    family = hermite_family(args.order)
    dofmap = build_dofmap(mesh, family, jh_constraints())
    rule = gauss_legendre(required_points(args.order))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        coeffs = rng.standard_normal(dofmap.n_global)
        jac = assemble_jacobian(problem, dofmap, coeffs, rule).to_dense()
        fd = np.empty_like(jac)
        for j in range(dofmap.n_global):
            step = 1e-6 * max(1.0, abs(coeffs[j]))
            up = coeffs.copy()
            up[j] += step
            dn = coeffs.copy()
            dn[j] -= step
            fd[:, j] = (
                assemble_residual(problem, dofmap, up, rule)
                - assemble_residual(problem, dofmap, dn, rule)
            ) / (2 * step)
        denom = np.maximum(1.0, np.abs(jac))
        worst = max(worst, float(np.max(np.abs(jac - fd) / denom)))
    report("jacobian finite differences", worst < 1e-6, f"max deviation {worst:.2e}")

    # duality identity on a converged solve
    try:
        fem = _fem_solve(problem, args.order, args.nelem, args.opts)
    except NotConverged:
        report("duality pairing identity", False, "solve did not converge")
    else:
        lhs, rhs, diff = duality_pairing_check(fem, problem)
        report("duality pairing identity", abs(diff) <= 1e-9, f"|lhs - rhs| = {abs(diff):.2e}")
        bcs = jh_constraints()
        bc_ok = fem.dofmap.fixed.size == len(bcs) and all(
            fem.coeffs[fem.dofmap.endpoint(kind, side)] == value
            for (kind, side), value in bcs.items()
        )
        report("boundary conditions", bc_ok, "direct DOF reads")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedgeflow",
        description="Wedge-flow profile solver (C1 Hermite FEM) with shooting cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, summary, groups, **defaults):
        """A subcommand taking the flag groups its command function reads.  Flags
        are never abbreviated, so `--order` and `--nelem` cannot stand for the
        studies' `--orders` and `--nelems`."""
        sp = sub.add_parser(name, help=summary, allow_abbrev=False)
        if "case" in groups:
            sp.add_argument("--re", type=float, default=0.0, help="Reynolds number")
            sp.add_argument("--alpha-deg", type=float, default=15.0, help="half-angle in degrees")
        if "mesh" in groups:
            sp.add_argument("--order", type=int, default=4)
            sp.add_argument("--nelem", type=int, default=320)
        if "newton-tol" in groups:
            sp.add_argument("--newton-tol", type=float, default=1e-12)
        if "shoot-tol" in groups:
            sp.add_argument("--shoot-tol", type=float, default=1e-13)
        if "output" in groups:
            sp.add_argument("--output", choices=("csv", "json", "pretty"), default="pretty")
            sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.set_defaults(func=func, parser=sp, **defaults)
        return sp

    solve_groups = ("case", "mesh", "newton-tol", "output")
    add_command("solve", cmd_solve, "solve one case; print DOF summary, f'(1), K", solve_groups)

    add_command(
        "reference", cmd_reference, "write the dense shooting trajectory",
        ("case", "shoot-tol", "output"), output="csv",
    )

    sp = add_command("table", cmd_table, "tabulate f(eta) on a uniform eta grid", solve_groups)
    sp.add_argument("--eta-step", type=float, default=0.1)

    sp = add_command(
        "convergence", cmd_convergence, "mesh-refinement study against the oracle",
        ("case", "newton-tol", "shoot-tol", "output"),
    )
    sp.add_argument("--orders", default="3,4")
    sp.add_argument("--nelems", default="20,40,80,160,320")

    sp = add_command("model", cmd_model, "first-order model problem study", ("newton-tol", "output"))
    sp.add_argument("--orders", default="1..5")
    sp.add_argument("--nelems", default="8,16,32,64,128")
    sp.add_argument(
        "--formulation", choices=("galerkin", "least-squares"), default="galerkin"
    )

    sp = add_command("fields", cmd_fields, "export (r, theta, u_r, p) wedge samples", solve_groups)
    sp.add_argument("--r1", type=float, required=True)
    sp.add_argument("--r2", type=float, required=True)
    sp.add_argument("--nr", type=int, required=True)
    sp.add_argument("--ntheta", type=int, required=True)
    sp.add_argument("--nu", type=float, required=True, help="kinematic viscosity")
    sp.add_argument("--rho", type=float, required=True, help="density")
    sp.add_argument("--pin", type=float, default=0.0, help="pinned pressure constant p*")

    add_command(
        "check", cmd_check, "run the invariant suite", ("case", "mesh", "newton-tol"), nelem=40
    )

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # reported with the usage of the subcommand that refused them
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # each check applies to the commands that take the flag
    if hasattr(args, "alpha_deg") and not (0.0 < args.alpha_deg < 90.0):
        return _usage_error(f"alpha-deg must lie in (0, 90), got {args.alpha_deg}")
    degrees = ElementFamily.DEGREES[HERMITE]
    if hasattr(args, "order") and args.order not in degrees:
        return _usage_error(f"order must be in {degrees} for Hermite solves, got {args.order}")
    if hasattr(args, "nelem") and args.nelem < 1:
        return _usage_error("nelem must be positive")
    try:
        if hasattr(args, "newton_tol"):
            args.opts = SolverOptions(tol=args.newton_tol)  # a bad --newton-tol exits 2 here
        if hasattr(args, "shoot_tol"):
            check_end_tol(args.shoot_tol)  # and so does a bad --shoot-tol
        return args.func(args)
    except (NotConverged, ShootingError, SingularMatrixError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _usage_error(str(exc))


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
