"""Tests of the benchmark itself: statistics, span accounting and the smoke mode.

    python3 -m pytest -q perfbench/test_bench.py
"""

import subprocess
import sys
from pathlib import Path

import pytest
import run
import tracer

HERE = Path(__file__).resolve().parent


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(36)]
    value, pct, n = run.tail(values)
    assert (value, n) == (25.0, 36)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 26 / 36)


def test_tail_without_ten_beyond_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_union_of_children():
    spans = [
        tracer.Span(1, None, 1, "op", 0.0, 10.0, 0),
        tracer.Span(2, 1, 1, "a", 1.0, 4.0, 0),
        tracer.Span(3, 1, 1, "b", 3.0, 6.0, 1),  # overlaps a (another thread)
        tracer.Span(4, 2, 1, "c", 2.0, 3.0, 0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_wrapped_calls_are_recorded_only_inside_operations():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    tr = tracer.Tracer()
    tr.wrap(Owner, "work", "layer.work")
    assert Owner.work(1) == 2
    with tr.operation("op"):
        assert Owner.work(2) == 3
    tr.restore()
    assert [s.name for s in tr.spans] == ["layer.work", "op"]
    assert tr.events == [(tr.spans[1].span_id, "layer.work.calls", 1)]
    assert Owner.work(3) == 4 and len(tr.spans) == 2


def test_smoke_mode_reports_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True,
                          text=True, cwd=HERE.parent, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS smoke") == 4


def test_counts_repeat_between_runs_of_one_seed():
    proc = subprocess.run([sys.executable, str(HERE / "repeat_counts.py"), "--workload", "cli_cold",
                           "--reduced"], capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
