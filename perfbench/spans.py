"""Span tracer for the benchmark's traced runs.

The package is instrumented from outside: each public function named in
``SPANS`` is replaced, in every package module that bound it, by a wrapper
that records a span. Spans nest through a stack, so a layer's self time is
its span's duration minus the durations of the spans it caused. Only
aggregates (calls, self time, counters) are kept; the program's own source
is not touched.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

PACKAGE = "invariant_burgers"

# (module, attribute, span name); the module need not exist at every commit
SPANS = (
    ("grid", "monitor", "grid.monitor"),
    ("grid", "advance_equidistributed", "grid.advance_equidistributed"),
    ("grid", "equidistribute_initial", "grid.equidistribute_initial"),
    ("grid", "advance_lagrangian", "grid.advance_lagrangian"),
    ("grid", "advance_constant", "grid.advance_constant"),
    ("grid", "advance_stationary", "grid.advance_stationary"),
    ("schemes", "run", "schemes.run"),
    ("schemes", "invariant_step", "schemes.invariant_step"),
    ("schemes", "ftcs_step_fixed", "schemes.ftcs_step_fixed"),
    ("schemes", "evolution_projection_step",
     "schemes.evolution_projection_step"),
    ("interpolate", "interpolate", "interpolate.interpolate"),
    ("symmetry", "apply_field", "symmetry.apply_field"),
    ("exact", "coefficients", "exact.coefficients"),
    ("exact", "evaluate", "exact.evaluate"),
    ("harness", "linf_error", "harness.linf_error"),
    ("harness", "convergence_study", "harness.convergence_study"),
    ("harness", "frame_comparison", "harness.frame_comparison"),
    ("harness", "_write_csv", "harness.write_csv"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name): methods are patched on the class
METHOD_SPANS = (
    ("grid", "GridSlice", "__post_init__", "grid.containers"),
    ("grid", "DiscreteField", "__post_init__", "grid.containers"),
    ("interpolate", "PeriodicCubicSpline", "__init__", "interpolate.spline"),
    ("interpolate", "PeriodicCubicSpline", "__call__", "interpolate.spline"),
)

# a call to one of these directly under run() is one time step
STEP_SPANS = frozenset({"schemes.invariant_step", "schemes.ftcs_step_fixed",
                        "schemes.evolution_projection_step"})


class Tracer:
    """Aggregates nested spans into calls and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.covered_s = 0.0  # summed duration of outermost spans
        self._stack = []  # [name, start, time covered by child spans]

    def enter(self, name: str):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> str | None:
        """Close the innermost span; returns the name of its parent."""
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if not self._stack:
            self.covered_s += duration
            return None
        self._stack[-1][2] += duration
        return self._stack[-1][0]

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = tracer.exit()
            if name in STEP_SPANS and parent == "schemes.run":
                tracer.counts["schemes.steps"] += 1
            elif name == "harness.write_csv":
                tracer.counts["harness.csv_bytes"] += os.path.getsize(args[0])
            return result

        return traced

    def count_sweeps(self, fn):
        """Counter without a span: the solver's sweep count per call."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                tracer.counts["grid.sor_sweeps"] += result[0]
            return result

        return counted


def _module(name: str):
    try:
        return importlib.import_module(f"{PACKAGE}.{name}")
    except ImportError:
        return None


def _rebind_everywhere(original, replacement, undo: list):
    """Point every package-module name bound to ``original`` at
    ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE
                               or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them."""
    undo = []
    for mod_name, attr, span in SPANS:
        mod = _module(mod_name)
        original = getattr(mod, attr, None)
        if original is not None:
            _rebind_everywhere(original, tracer.wrap(span, original), undo)
    for mod_name, cls_name, meth, span in METHOD_SPANS:
        cls = getattr(_module(mod_name), cls_name, None)
        original = vars(cls).get(meth) if cls is not None else None
        if original is not None:
            setattr(cls, meth, tracer.wrap(span, original))
            undo.append((cls, meth, original))
    backend = _module("_backend")
    original = getattr(backend, "sor_sweeps", None)
    if original is not None:
        _rebind_everywhere(original, tracer.count_sweeps(original), undo)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
