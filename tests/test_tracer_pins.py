"""The benchmark tracer (perfbench/tracer.py) wraps wedgeflow functions at the
module attributes where their callers look them up.  Every such attribute must
exist, and `restore` must put each original back."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_install_and_restore(monkeypatch):
    spec = importlib.util.spec_from_file_location("wedgeflow_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # the tracer defines dataclasses, which look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    try:
        tracer.install(tr)  # AttributeError if a wrapped name has gone
        patches = list(tr._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
    finally:
        tr.restore()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
