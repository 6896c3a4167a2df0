"""Span tracing of a package's public functions, installed from outside it.

Every function named in a traced module's ``__all__`` is wrapped once, and
the wrapper is bound under every module attribute that held the original,
so names imported with ``from .lattice import convolve`` into sibling
modules are traced as well.  The package source is not touched.

A span records its name, start, end, parent span and op id.  Spans stay in
memory; self time, call counts and per-op layer totals are derived from
them after the run.  Counters computed from inputs and return values
(iterations, orders, steps, bytes) ride on the span that produced them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

# span fields
NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    """In-memory span recorder.  Spans are recorded only while ``op`` is
    set, so set-up and correctness checks stay out of the trace."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(len(self.spans))
            span = [name, 0.0, 0.0, parent, self.op, None]
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return traced


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _file_bytes(fn):
    return lambda a, k, r: {"bytes": os.path.getsize(_arg(fn, a, k, "path"))}


def default_counters(pkg: str) -> dict:
    """Counts recorded per span, keyed by span name: solver iterations,
    Taylor orders, oracle RK4 steps, and field-file sizes."""
    lattice = importlib.import_module(f"{pkg}.lattice")
    oracle = importlib.import_module(f"{pkg}.oracle")
    solve = oracle.etd_reference_solve
    return {
        "engine.picard_iterate": lambda a, k, r: {"iterations": len(r.iterates)},
        "engine.taylor_coefficients": lambda a, k, r: {"orders": r.orders},
        "oracle.etd_reference_solve":
            lambda a, k, r: {"steps": _arg(solve, a, k, "cfg").nt_fine - 1},
        "lattice.save_field": _file_bytes(lattice.save_field),
        "lattice.load_field": _file_bytes(lattice.load_field),
    }


def install(tracer: Tracer, pkg: str, layers, counters=None) -> int:
    """Wrap the public functions of ``pkg.<layer>`` for every layer and
    rebind them in every loaded module of the package.  Returns the number
    of functions wrapped."""
    counters = counters or {}
    wrapped = {}
    for layer in layers:
        mod = importlib.import_module(f"{pkg}.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrapped[fn] = tracer.wrap(name, fn, counters.get(name))
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == pkg or modname.startswith(pkg + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
    return len(wrapped)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children; each
    child is subtracted exactly once, from its own parent only."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def per_op_totals(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per op id: ``<span>.self_s`` and ``<span>.calls`` for every span name,
    ``<layer>.self_s`` per module, every recorded counter, and
    ``trace.spanned_s``, the op time covered by root spans."""
    own = self_times(spans)
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, own):
        t = totals[s[OP]]
        t[f"{s[NAME]}.self_s"] += self_s
        t[f"{s[NAME]}.calls"] += 1
        t[f"{s[NAME].split('.')[0]}.self_s"] += self_s
        if s[PARENT] is None:
            t["trace.spanned_s"] += s[END] - s[START]
        for key, val in (s[COUNTS] or {}).items():
            t[f"{s[NAME]}.{key}"] += val
    return totals


def median_per_op(totals: dict[int, dict[str, float]], ops, names) -> dict:
    """Median over ``ops`` of each named per-op total (0 where absent)."""
    return {n: statistics.median(totals.get(op, {}).get(n, 0.0) for op in ops)
            for n in names}
