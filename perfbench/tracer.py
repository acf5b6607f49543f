"""Span tracer for the wedgeflow benchmark, applied from outside the package.

Each public function is wrapped at the module attribute where its caller looks
it up (for example `wedgeflow.solver.solve_banded`, which `newton_loop` finds
in the `solver` module namespace).  Nothing under `src/` is edited.  Spans and
counts are kept in memory and only recorded while an operation is open, so
the benchmark's own correctness checks never show up in the trace.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    op_id: int
    name: str
    start: float
    end: float
    thread: int


def band_lu_flops(n: int, k: int) -> int:
    """Computed flop count of one `dgbsv` call with kl = ku = k and one RHS.

    Factorisation: per column, k multipliers and a rank-1 update of k rows over
    the 2k-wide upper band left by pivoting fill (2k * 2k flops).  Solve:
    2k flops forward and 2 * 2k backward per row.  Edge effects are ignored,
    so this is an upper bound for the given storage, not a measurement.
    """
    return n * (k + 4 * k * k) + n * (2 * k + 4 * k)


def band_bytes(n: int, k: int) -> int:
    """Bytes of the float64 LAPACK band copy that `solve_banded` factorises."""
    return (3 * k + 1) * n * 8


class Tracer:
    """Records spans and counts for operations opened with `operation`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.events: list[tuple[int, str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None  # id of the open operation's root span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def operation(self, name: str):
        """Open one operation: a top-level span whose id tags every child."""
        sid = next(self._ids)
        self._op = sid
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._op = None
            self.spans.append(Span(sid, None, sid, name, t0, t1, threading.get_ident()))

    def _stack(self, op_id: int) -> list[int]:
        # Each thread, the CLI's pool workers included, starts its stack of
        # open spans under the root span of the current operation.
        if getattr(self._local, "op", None) != op_id:
            self._local.op = op_id
            self._local.stack = [op_id]
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        op = self._op
        if op is None:
            yield
            return
        stack = self._stack(op)
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, op, name, t0, t1, threading.get_ident()))

    def count(self, key: str, value: float = 1):
        op = self._op
        if op is not None:
            self.events.append((op, key, value))

    # -- patching --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, span: bool = True, after=None, name_fn=None):
        """Replace `owner.attr` by a traced wrapper; `restore` undoes it."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            label = name_fn(args) if name_fn else name
            if span:
                with self.span(label):
                    out = fn(*args, **kwargs)
            else:
                out = fn(*args, **kwargs)
            self.count(label + ".calls")
            if after is not None:
                after(self, args, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def restore(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


def install(tracer: Tracer):
    """Wrap every public wedgeflow function the workloads reach."""
    from wedgeflow import analysis, cli, model_problem, shooting, solver

    def after_solve_banded(tr, args, _out):
        a = args[0]
        tr.count("solver.band_lu_flops", band_lu_flops(a.n, a.k))
        tr.count("solver.band_half_width.max", a.k)
        tr.count("solver.band_bytes.max", band_bytes(a.n, a.k))

    def after_newton_loop(tr, _args, out):
        tr.count("solver.newton_iters", out[2])
        tr.count("solver.converged", 1 if out[1] else 0)

    def after_solve_ivp(tr, _args, sol):
        tr.count("shooting.ivp_nfev", sol.nfev)

    def after_solve_model(tr, _args, fem):
        tr.count("model_problem.refine_passes", max(fem.newton_iters - 1, 0))

    def reference_label(args):
        # cached_property stores the interpolants in the instance dict, so a
        # missing entry means this call builds them.
        built = "_interp_f" in vars(args[0])
        return "shooting.evaluate_reference" if built else "shooting.interp_build"

    w = tracer.wrap
    w(solver, "solve_banded", "solver.solve_banded", after=after_solve_banded)
    for mod in (solver, cli):
        w(mod, "assemble_residual", "solver.assemble_residual")
        w(mod, "assemble_jacobian", "solver.assemble_jacobian")
    w(solver, "newton_solve", "solver.newton_solve")
    w(cli, "newton_solve", "solver.newton_solve")
    for mod in (solver, model_problem):
        w(mod, "newton_loop", "solver.newton_loop", after=after_newton_loop)
        w(mod, "build_dofmap", "meshing.build_dofmap")
    w(cli, "build_dofmap", "meshing.build_dofmap")
    w(solver.BandedMatrix, "matvec", "solver.matvec")
    w(solver, "eval_family", "basis.eval_family")
    w(model_problem, "eval_hierarchic", "basis.eval_family")
    for mod in (solver, model_problem, analysis, cli):
        w(mod, "gauss_legendre", "quadrature.gauss_legendre")
    for mod in (shooting, cli):
        w(mod, "shoot", "shooting.shoot")
    w(shooting, "solve_ivp", "shooting.solve_ivp", span=False, after=after_solve_ivp)
    w(shooting, "integrate", "shooting.integrate")
    for mod in (analysis, cli):
        w(mod, "evaluate_reference", "", name_fn=reference_label)
    for mod in (analysis, cli, model_problem):
        w(mod, "error_norms", "analysis.error_norms")
    w(analysis, "fit_rates", "analysis.fit_rates")
    for mod in (model_problem, cli):
        w(mod, "solve_model", "model_problem.solve_model", after=after_solve_model)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - _covered(children[s.span_id], s.start, s.end)
        for s in spans
    }


#: Per-layer metrics of one traced pass: (name, unit).  Times are sums of span
#: self time; `cli.<command>_s` are whole in-process `cli.run` times.
LAYER_METRICS = (
    ("solver.solve_banded_s", "s"),
    ("solver.solve_banded.calls", "count"),
    ("solver.band_half_width.max", "count"),
    ("solver.band_bytes.max", "bytes"),
    ("solver.band_lu_flops", "flop"),
    ("solver.assemble_residual_s", "s"),
    ("solver.assemble_residual.calls", "count"),
    ("solver.assemble_jacobian_s", "s"),
    ("solver.assemble_jacobian.calls", "count"),
    ("solver.newton_solve_s", "s"),
    ("solver.newton_solve.calls", "count"),
    ("solver.newton_iters", "count"),
    ("solver.converged_ratio", "ratio"),
    ("solver.newton_loop_s", "s"),
    ("solver.newton_loop.calls", "count"),
    ("solver.matvec_s", "s"),
    ("solver.matvec.calls", "count"),
    ("meshing.build_dofmap_s", "s"),
    ("meshing.build_dofmap.calls", "count"),
    ("basis.eval_family_s", "s"),
    ("basis.eval_family.calls", "count"),
    ("quadrature.gauss_legendre_s", "s"),
    ("quadrature.gauss_legendre.calls", "count"),
    ("shooting.shoot_s", "s"),
    ("shooting.shoot.calls", "count"),
    ("shooting.solve_ivp.calls", "count"),
    ("shooting.ivp_nfev", "count"),
    ("shooting.integrate_s", "s"),
    ("shooting.integrate.calls", "count"),
    ("shooting.interp_build_s", "s"),
    ("shooting.interp_build.calls", "count"),
    ("shooting.evaluate_reference_s", "s"),
    ("shooting.evaluate_reference.calls", "count"),
    ("analysis.error_norms_s", "s"),
    ("analysis.error_norms.calls", "count"),
    ("analysis.fit_rates_s", "s"),
    ("model_problem.solve_model_s", "s"),
    ("model_problem.solve_model.calls", "count"),
    ("model_problem.refine_passes", "count"),
    ("cli.solve_s", "s"),
    ("cli.table_s", "s"),
    ("cli.convergence_s", "s"),
    ("cli.model_s", "s"),
    ("cli.check_s", "s"),
)

#: Count-valued metrics that must repeat exactly between passes on one seed.
COUNT_UNITS = ("count", "bytes", "flop")


def layer_metrics(spans: list[Span], events) -> dict[str, float]:
    """Aggregate one traced pass into the LAYER_METRICS values plus accounting."""
    selfs = self_times(spans)
    out = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS}
    op_self = 0.0
    for s in spans:
        if s.parent_id is None:
            op_self += selfs[s.span_id]
            if s.name.startswith("cli."):  # in-process CLI commands: whole run time
                out[s.name + "_s"] += s.end - s.start
            continue
        key = s.name + "_s"
        if key in out:
            out[key] += selfs[s.span_id]
    converged = 0
    for _op, key, value in events:
        if key == "solver.converged":
            converged += value
        elif key.endswith(".max"):
            out[key] = max(out[key], value)
        elif key in out:
            out[key] += value
    loops = out["solver.newton_loop.calls"]
    out["solver.converged_ratio"] = converged / loops if loops else 0.0
    out["trace.op_self_s"] = op_self
    out["trace.span_self_sum_s"] = sum(selfs.values())
    return out
