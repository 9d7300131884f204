"""The functions that the benchmark's tracer wraps still exist, and it sees
the calls made between hardylab's layers.

perfbench/tracing.py looks up every (module, name) of its TRACED table in
the loaded hardylab modules.  A deleted or renamed function would break a
traced benchmark run, and the test suite does not collect perfbench/.
"""

import importlib.util
import math
import sys
from pathlib import Path

import hardylab  # loads every hardylab module

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    tracing = load_tracing()
    for module, name in tracing.TRACED:
        fn = getattr(sys.modules.get("hardylab." + module), name, None)
        assert callable(fn), f"hardylab.{module}.{name} is traced but missing"


def test_tracer_sees_the_operators_verify_builds():
    # verify must call hardy and dual_hardy through its module names at call
    # time; a wrapper captured at import would hide them from the tracer.
    f = hardylab.make_piecewise([0, 0.5, 3, math.inf],
                                [[(2, 0.25, 0)], [(1, -0.5, 0)], [(4, -2.5, 0)]],
                                require_nonneg=True)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for p in (1.5, 3.0):
            hardylab.verify.verify_theorem1(f, p)
    finally:
        tracer.uninstall()
    assert tracer.calls[("operators", "hardy")] == 1
    assert tracer.calls[("operators", "dual_hardy")] == 1
