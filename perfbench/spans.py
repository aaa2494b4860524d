"""Span tracing from outside the program: wrap public functions in place.

The tracer never edits source.  ``install`` replaces each public function
of the layer modules (and each public method of their public classes) by
a timing wrapper, at its home module and at every other ``magcav``
module that bound the same object with ``from ... import``.
``uninstall`` puts the originals back, so untraced passes run the
program exactly as shipped.

Each span records wall time; its self time is that wall time minus the
wall time of the spans it called.  I/O spans also record CPU time, and
their ``wait_s`` is wall time minus CPU time.  Counters are taken by
small observers that run after a span closes; their cost is kept out of
every span's self time.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

# Layer modules on the CLI call path.  ``walker`` and ``core`` have no CLI
# call path; ``_kernels`` is private and deliberately never touched.
LAYERS = ("config", "spectra", "estimators", "cavity", "modes", "cli")

IO_SPANS = {"spectra.DensityMap.write_csv", "spectra.DensityMap.write_pgm",
            "spectra.DensityMap.read_csv"}


def _public_callables(module):
    """(qualname, owner, attribute, function, wrap-as) for one module."""
    names = getattr(module, "__all__", None)
    if names is None:  # the CLI module: its entry point only
        names = ["main"]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, module, name, obj, None
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, classmethod):
                    yield f"{name}.{attr}", obj, attr, raw.__func__, classmethod
                elif inspect.isfunction(raw):
                    yield f"{name}.{attr}", obj, attr, raw, None


def local_maxima(y) -> int:
    """Interior samples with y[i] > y[i-1] and y[i] >= y[i+1]."""
    import numpy as np

    y = np.asarray(y, dtype=float)
    if y.size < 3:
        return 0
    mid = y[1:-1]
    return int(np.count_nonzero((mid > y[:-2]) & (mid >= y[2:])))


class Tracer:
    """Per-pass span and counter store; ``reset`` starts a new pass."""

    def __init__(self):
        self._stack = []
        self._patches = None
        self.command = None
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.wall_s = defaultdict(float)
        self.wait_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.field_keys = defaultdict(list)

    # -- observers: counters taken where the work happens ---------------

    def _observe(self, name, fn, args, kwargs, result):
        if name in IO_SPANS:
            self.counts[name + ".bytes"] += os.path.getsize(args[1])
        elif name == "spectra.density_map":
            self.counts[name + ".cells"] += result.values.size
        elif name == "estimators.find_peaks":
            maxima = local_maxima(args[1])
            self.counts[name + ".kept"] += len(result)
            self.counts[name + ".maxima"] += maxima
            # per command, so each input map reports its own maxima per column
            self.counts[f"{name}.maxima@{self.command}"] += maxima
            self.counts[f"{name}.calls@{self.command}"] += 1
        elif name == "estimators.extract_ridge":
            self.counts[name + ".points"] += len(result[0])
        elif name in ("estimators.fit_two_mode", "estimators.fit_three_mode"):
            self.counts["estimators.fit.iterations"] += result.iterations
        elif name == "cavity.field_map":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            geom = bound.arguments["geometry"]
            key = (geom.cavity_radius, geom.post_radius, geom.post_spacing,
                   bound.arguments["mode"], bound.arguments["resolution"])
            self.field_keys[self.command].append(key)

    def _wrap(self, name, fn):
        stack = self._stack
        io = name in IO_SPANS
        perf = time.perf_counter
        cpu = time.thread_time

        def span(*args, **kwargs):
            stack.append(0.0)
            c0 = cpu() if io else 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                if io:
                    self.wait_s[name] += dt - (cpu() - c0)
                child = stack.pop()
                self.self_s[name] += dt - child
                self.wall_s[name] += dt
                self.calls[name] += 1
            o0 = perf()
            self._observe(name, fn, args, kwargs, result)
            # observer and bookkeeping time belongs to no span
            spent = perf() - o0 + (o0 - t0 - dt)
            if stack:
                stack[-1] += dt + spent
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        return span

    def _plan(self):
        """(owner, attribute, original, replacement) for every binding."""
        modules = [sys.modules[f"magcav.{layer}"] for layer in LAYERS]
        # every magcav namespace that may hold a from-import binding
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "magcav" or key.startswith("magcav."))
                      and key != "magcav._kernels"]
        plan = []
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for qual, owner, attr, fn, kind in _public_callables(module):
                wrapper = self._wrap(f"{short}.{qual}", fn)
                if owner is module:
                    for ns in namespaces:
                        plan.extend((ns, key, value, wrapper)
                                    for key, value in vars(ns).items() if value is fn)
                else:
                    plan.append((owner, attr, vars(owner)[attr],
                                 kind(wrapper) if kind else wrapper))
        return plan

    def install(self):
        """Wrap every public callable of the layer modules, everywhere bound."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def region(self, name):
        """Root span for one command of a pass (no self time of its own)."""
        return _Region(self, name)


class _Region:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.command = self.name
        self.tracer._stack.append(0.0)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        self.tracer._stack.pop()
        self.tracer.wall_s[f"cmd.{self.name}"] += dt
        self.tracer.command = None
        return False
