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
from .basis import hermite_family
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
MAX_ETA_STEPS = 10**6  # `table` rows are bounded before the solve


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
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _problem(args) -> JhProblem:
    return JhProblem(args.re, math.radians(args.alpha_deg))


def _fem_solve(problem: JhProblem, order: int, nelem: int, opts: SolverOptions):
    """`newton_solve` on a uniform Hermite mesh; a `roundoff` stop gets a note on stderr."""
    fem = newton_solve(problem, build_mesh(nelem), hermite_family(order), opts)
    if fem.stop_reason == "roundoff":
        print(
            "note: newton stopped on roundoff-level steps (stop reason: roundoff) "
            f"at p={order}, N={nelem}; residual {fem.final_residual_norm:.3e}, "
            f"--newton-tol {opts.tol:g}",
            file=sys.stderr,
        )
    return fem


def _solve_case(args):
    problem = _problem(args)
    return problem, _fem_solve(problem, args.order, args.nelem, args.opts)


def _report_nonconvergence(fem) -> int:
    print(
        f"newton iteration did not converge (stop reason: {fem.stop_reason}); "
        "residual-norm history:",
        file=sys.stderr,
    )
    for i, rn in enumerate(fem.norm_history):
        print(f"  iter {i}: {rn:.3e}", file=sys.stderr)
    return 1


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(CSV_FMT.format(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(args, **body) -> str:
    """One JSON document: the run's settings under "config", then `body`."""
    config = {
        "command": args.command,
        "re": args.re,
        "alpha_deg": args.alpha_deg,
        "order": args.order,
        "n_elem": args.nelem,
        "newton_tol": args.newton_tol,
        "shoot_tol": args.shoot_tol,
        "output": args.output,
        "out_path": args.out,
    }
    for name in ("orders", "nelems", "formulation"):  # the study settings
        if hasattr(args, name):
            config[name] = getattr(args, name)
    return json.dumps({"config": config, **body}, indent=2) + "\n"


def _rows_text(header: list[str], rows: list[list], args) -> str:
    if args.output == "csv":
        return _csv_text(header, rows)
    if args.output == "json":
        return _json_text(args, rows=[dict(zip(header, row)) for row in rows])
    widths = [max(len(h), 18) for h in header]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for row in rows:
        cells = [
            (PRETTY_FMT.format(v) if isinstance(v, float) else str(v)).rjust(w)
            for v, w in zip(row, widths)
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    problem, fem = _solve_case(args)
    if not fem.converged:
        return _report_nonconvergence(fem)
    fp1 = fem.fp_right()
    k_val = compute_K(problem, fp1)
    header = [
        "re",
        "alpha_deg",
        "order",
        "n_elem",
        "n_dofs",
        "n_constrained",
        "newton_iters",
        "residual_norm",
        "fp1",
        "K",
    ]
    row = [
        float(args.re),
        float(args.alpha_deg),
        args.order,
        args.nelem,
        fem.dofmap.n_global,
        len(jh_constraints()),
        fem.newton_iters,
        float(fem.final_residual_norm),
        fp1,
        k_val,
    ]
    _emit(_rows_text(header, [row], args), args.out)
    return 0


def cmd_reference(args) -> int:
    problem = _problem(args)
    ref = shoot(problem, end_tol=args.shoot_tol)
    header = ["eta", "f", "fp", "fpp"]
    rows = [
        [float(e), float(st[0]), float(st[1]), float(st[2])]
        for e, st in zip(ref.grid, ref.states)
    ]
    _emit(_rows_text(header, rows, args), args.out)
    return 0


def cmd_table(args) -> int:
    if not 0.0 < args.eta_step <= 1.0:
        return _usage_error(f"--eta-step must lie in (0, 1], got {args.eta_step}")
    n_steps = 1.0 / args.eta_step
    if n_steps > MAX_ETA_STEPS:  # also catches 1 / 5e-324 = inf
        return _usage_error(
            f"--eta-step must be at least {1 / MAX_ETA_STEPS:g} "
            f"(at most {MAX_ETA_STEPS} steps), got {args.eta_step}"
        )
    n_rows = round(n_steps)
    if abs(n_steps - n_rows) > 1e-9 * n_steps:
        return _usage_error(f"--eta-step must divide 1 into whole steps, got {args.eta_step}")
    problem, fem = _solve_case(args)
    if not fem.converged:
        return _report_nonconvergence(fem)
    etas = np.linspace(0.0, 1.0, n_rows + 1)
    f_vals = fem.evaluate(etas)[0]
    header = ["eta", "f"]
    rows = [[float(e), float(v)] for e, v in zip(etas, f_vals)]
    _emit(_rows_text(header, rows, args), args.out)
    return 0


REPORT_HEADER = ["n_elem", "n_nodes", "l2_error", "h1_error"]


def _report_rows(report) -> list[list]:
    return [[row.n_elem, row.n_elem + 1, row.l2, row.h1] for row in report.rows]


def _suffixed_path(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_{suffix}{ext or '.csv'}"


def _emit_reports(reports, labels, args) -> int:
    """One CSV table per report, and its slopes on stderr (stdout with --out);
    with `--output json`, one document holding every report."""
    if args.output == "json":
        studies = {
            label: {
                "rows": [dict(zip(REPORT_HEADER, row)) for row in _report_rows(report)],
                "slope_l2": report.slope_l2,
                "slope_h1": report.slope_h1,
            }
            for report, label in zip(reports, labels)
        }
        _emit(_json_text(args, reports=studies), args.out)
        return 0
    for report, label in zip(reports, labels):
        text = _csv_text(REPORT_HEADER, _report_rows(report))
        if args.out:
            _emit(text, _suffixed_path(args.out, label))
        else:
            sys.stdout.write(f"# {label}\n{text}")
        print(
            f"{label}: slope_l2 = {report.slope_l2:.3f}, slope_h1 = {report.slope_h1:.3f}",
            file=sys.stderr if args.out is None else sys.stdout,
        )
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
            if not fem.converged:
                raise SingularMatrixError(
                    f"no convergence at p={p}, N={n}: residual {fem.final_residual_norm:.3e}"
                )
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
    fluid = FluidProps(nu=args.nu, rho=args.rho)
    problem = JhProblem(args.re, math.radians(args.alpha_deg), fluid)
    fem = _fem_solve(problem, args.order, args.nelem, args.opts)
    if not fem.converged:
        return _report_nonconvergence(fem)
    k_val = compute_K(problem, fem.fp_right())
    cfg = WedgeFieldConfig(
        problem=problem, fluid=fluid, p_star=args.pin, K=k_val, lam=problem.lam
    )
    r_vals = np.linspace(args.r1, args.r2, args.nr)
    t_vals = np.linspace(-problem.alpha, problem.alpha, args.ntheta)
    points = [(r, t) for r in r_vals for t in t_vals]
    out = wedge_fields(cfg, fem, points)
    header = ["r", "theta", "u_r", "p"]
    rows = [
        [float(r), float(t), float(u), float(pv)]
        for (r, t), (u, pv) in zip(points, out)
    ]
    _emit(_rows_text(header, rows, args), args.out)
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
    fem = _fem_solve(problem, args.order, args.nelem, args.opts)
    if fem.converged:
        lhs, rhs, diff = duality_pairing_check(fem, problem)
        report("duality pairing identity", abs(diff) <= 1e-9, f"|lhs - rhs| = {abs(diff):.2e}")
        bc_ok = all(
            fem.coeffs[fem.dofmap.endpoint(kind, side)] == value
            for (kind, side), value in jh_constraints().items()
        )
        report("boundary conditions", bc_ok, "direct DOF reads")
    else:
        report("duality pairing identity", False, "solve did not converge")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedgeflow",
        description="Wedge-flow profile solver (C1 Hermite FEM) with shooting cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, nelem_default=320, order_default=4):
        sp.add_argument("--re", type=float, default=0.0, help="Reynolds number")
        sp.add_argument("--alpha-deg", type=float, default=15.0, help="half-angle in degrees")
        sp.add_argument("--order", type=int, default=order_default)
        sp.add_argument("--nelem", type=int, default=nelem_default)
        sp.add_argument("--newton-tol", type=float, default=1e-12)
        sp.add_argument("--shoot-tol", type=float, default=1e-13)
        sp.add_argument("--output", choices=("csv", "json", "pretty"), default="pretty")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")

    sp = sub.add_parser("solve", help="solve one case; print DOF summary, f'(1), K")
    add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("reference", help="write the dense shooting trajectory")
    add_common(sp)
    sp.set_defaults(func=cmd_reference, output="csv")

    sp = sub.add_parser("table", help="tabulate f(eta) on a uniform eta grid")
    add_common(sp)
    sp.add_argument("--eta-step", type=float, default=0.1)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("convergence", help="mesh-refinement study against the oracle")
    add_common(sp)
    sp.add_argument("--orders", default="3,4")
    sp.add_argument("--nelems", default="20,40,80,160,320")
    sp.set_defaults(func=cmd_convergence)

    sp = sub.add_parser("model", help="first-order model problem study")
    add_common(sp, nelem_default=128, order_default=1)
    sp.add_argument("--orders", default="1..5")
    sp.add_argument("--nelems", default="8,16,32,64,128")
    sp.add_argument(
        "--formulation", choices=("galerkin", "least-squares"), default="galerkin"
    )
    sp.set_defaults(func=cmd_model)

    sp = sub.add_parser("fields", help="export (r, theta, u_r, p) wedge samples")
    add_common(sp)
    sp.add_argument("--r1", type=float, required=True)
    sp.add_argument("--r2", type=float, required=True)
    sp.add_argument("--nr", type=int, required=True)
    sp.add_argument("--ntheta", type=int, required=True)
    sp.add_argument("--nu", type=float, required=True, help="kinematic viscosity")
    sp.add_argument("--rho", type=float, required=True, help="density")
    sp.add_argument("--pin", type=float, default=0.0, help="pinned pressure constant p*")
    sp.set_defaults(func=cmd_fields)

    sp = sub.add_parser("check", help="run the invariant suite")
    add_common(sp, nelem_default=40)
    sp.set_defaults(func=cmd_check)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if hasattr(args, "alpha_deg") and not (0.0 < args.alpha_deg < 90.0):
        return _usage_error(f"alpha-deg must lie in (0, 90), got {args.alpha_deg}")
    if hasattr(args, "order") and args.command not in ("model",) and args.order not in (3, 4, 5):
        return _usage_error(f"order must be 3, 4, or 5 for Hermite solves, got {args.order}")
    if hasattr(args, "nelem") and args.nelem < 1:
        return _usage_error("nelem must be positive")
    try:
        args.opts = SolverOptions(tol=args.newton_tol)  # a bad --newton-tol exits 2 here
        check_end_tol(args.shoot_tol)  # and so does a bad --shoot-tol
        return args.func(args)
    except (ShootingError, SingularMatrixError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _usage_error(str(exc))


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
