"""Per-layer tracing by wrapping hardylab's public functions.

Each wrapped function counts its calls and its self time: the span of the
call minus the spans of traced calls made inside it.  A function is
replaced in every hardylab module that holds it by name, so calls between
layers (verify -> operators -> norms) are seen, not only the benchmark's own.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, function) pairs of the traced layers.
TRACED = (
    ("cli", "run"), ("cli", "parse_function_spec"),
    ("funcmodel", "make_piecewise"), ("funcmodel", "is_nonincreasing"),
    ("operators", "hardy"), ("operators", "dual_hardy"),
    ("operators", "hardy_minus_identity"),
    ("norms", "lp_norm"),
    ("verify", "verify_theorem1"), ("verify", "verify_crude"),
    ("verify", "verify_theorem2"),
    ("extremal", "sweep"), ("extremal", "family"),
    ("duality", "check_equivalence"), ("duality", "mollify"),
    ("duality", "phi_to_f"), ("duality", "has_jumps"),
    ("_parallel", "map_ordered"),
)


def metric_prefix(module: str, name: str) -> str:
    """Metric names must start with a letter or digit: ``_parallel`` is
    reported as ``parallel``."""
    return f"{module.lstrip('_')}.{name}"


class Tracer:
    """Installs counting wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.calls = {key: 0 for key in TRACED}
        self.self_s = {key: 0.0 for key in TRACED}
        self._children = []  # traced time inside each open span
        self._patched = []   # (module, attribute, original)

    def _wrap(self, key, fn):
        clock = time.perf_counter
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                self.self_s[key] += span - children.pop()
                self.calls[key] += 1
                if children:
                    children[-1] += span
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hardylab" or n.startswith("hardylab.")]
        for key in TRACED:
            module, name = key
            original = getattr(sys.modules[f"hardylab.{module}"], name)
            wrapper = self._wrap(key, original)
            for m in modules:
                if m.__dict__.get(name) is original:
                    self._patched.append((m, name, original))
                    setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for m, name, original in reversed(self._patched):
            setattr(m, name, original)
        self._patched.clear()
