"""The functions that the benchmark's tracer wraps still exist.

perfbench/tracing.py looks up every (module, name) of its TRACED table in
the loaded hardylab modules.  A deleted or renamed function would break a
traced benchmark run, and the test suite does not collect perfbench/.
"""

import importlib.util
import sys
from pathlib import Path

import hardylab  # noqa: F401  (loads every hardylab module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in tracing.TRACED:
        fn = getattr(sys.modules.get("hardylab." + module), name, None)
        assert callable(fn), f"hardylab.{module}.{name} is traced but missing"
