"""Span tracer that wraps the library's functions from outside.

``Tracer.install`` rebinds every module-level name under ``hs2sphere``
that refers to a traced function, so names imported into ``cli``,
``verification``, ``hopf``, ``geometry`` and ``randfields`` are traced as
well.  It also wraps the ``verification.IDENTITIES`` entries,
``Trajectory.to_csv``, the CLI's writers and the scipy root finders bound
in ``funcspace`` and ``geodesics``.  ``Tracer.uninstall`` restores every
original binding.  No library file changes.

A span is [layer id, start, end, parent span index, job key]; spans stay
in memory until :meth:`Tracer.write`.  Counters are kept per job.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

from hs2sphere import cli, funcspace, geodesics, geometry, group, hopf
from hs2sphere import integrator, sphere, verification

MIB = 1024.0 * 1024.0

# Layers whose self time is reported per job, as "<layer>.self_s".
SELF_TIME_LAYERS = (
    "funcspace.invert_diffeo", "funcspace.trig_interpolate",
    "funcspace.spectral", "geodesics.exact_solution", "geodesics.blowup_time",
    "group.multiply", "group.inverse", "integrator.integrate",
    "integrator.compare_states", "geometry", "hopf", "sphere", "cli.write",
)
# Layers whose span count is reported per job, as "<layer>.calls".
CALL_COUNT_LAYERS = (
    "funcspace.invert_diffeo", "funcspace.trig_interpolate",
    "funcspace.spectral", "geodesics.exact_solution", "geodesics.blowup_time",
    "group.multiply", "group.inverse",
)
SPECTRAL = (
    funcspace.derivative, funcspace.antiderivative_from_zero,
    funcspace.inverse_A, funcspace.mean_projection,
)


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: str | None = None
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.maxima: dict[str, Counter] = defaultdict(Counter)
        self._peak_shapes: set[tuple] = set()
        self._undo: list = []

    # -- spans and counters ------------------------------------------------

    def _open(self, layer_id: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer_id, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[self.job][key] += amount

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer: str, fn, after=None):
        """Wrap fn in a span; after(args, result) runs on normal return."""
        layer_id = self._layer_id(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(layer_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, out)
            return out

        return traced

    def _trig_span(self, fn):
        """trig_interpolate: points, computed dense bytes, tracemalloc peak.

        The peak is taken on the first call of each job with a given grid
        size, point count and dtype; tracing every call would dominate the
        span's own time, since root finding makes thousands of 1-point calls.
        """
        layer_id = self._layer_id("funcspace.trig_interpolate")

        @functools.wraps(fn)
        def traced(f, points):
            npts = int(np.size(points))
            self._count("funcspace.trig_interpolate.points", npts)
            maxima = self.maxima[self.job]
            maxima["dense_bytes"] = max(maxima["dense_bytes"],
                                        npts * (f.grid.n + 1) * 16)
            shape = (self.job, f.grid.n, npts, f.values.dtype.char)
            measure = shape not in self._peak_shapes
            if measure:
                self._peak_shapes.add(shape)
                tracemalloc.start()
            idx = self._open(layer_id)
            try:
                return fn(f, points)
            finally:
                self._close(idx)
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    maxima["peak_bytes"] = max(maxima["peak_bytes"], peak)

        return traced

    def _count_evals(self, fn, key: str):
        """A root finder whose objective evaluations are counted under key."""

        @functools.wraps(fn)
        def counted(objective, *args, **kwargs):
            def counted_objective(*a):
                self._count(key)
                return objective(*a)

            return fn(counted_objective, *args, **kwargs)

        return counted

    def _count_calls(self, fn, key: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return counted

    def _writer(self, fn, path_index: int):
        def after(args, _):
            self._count("cli.bytes_written", os.path.getsize(args[path_index]))

        return self._span("cli.write", fn, after)

    def _steps(self, args, traj) -> None:
        self._count("integrator.steps", len(traj.energy_times) - 1)

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, name: str, value) -> None:
        old = getattr(owner, name)
        self._undo.append(lambda: setattr(owner, name, old))
        setattr(owner, name, value)

    def _replace_item(self, mapping: dict, key, value) -> None:
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def install(self) -> None:
        targets = {
            funcspace.invert_diffeo: self._span(
                "funcspace.invert_diffeo", funcspace.invert_diffeo),
            funcspace.trig_interpolate: self._trig_span(funcspace.trig_interpolate),
            geodesics.exact_solution: self._span(
                "geodesics.exact_solution", geodesics.exact_solution),
            geodesics.blowup_time: self._span(
                "geodesics.blowup_time", geodesics.blowup_time),
            group.multiply: self._span("group.multiply", group.multiply),
            group.inverse: self._span("group.inverse", group.inverse),
            integrator.integrate: self._span(
                "integrator.integrate", integrator.integrate, self._steps),
            integrator.compare_states: self._span(
                "integrator.compare_states", integrator.compare_states),
        }
        for fn in SPECTRAL:
            targets[fn] = self._span("funcspace.spectral", fn)
        for mod in (geometry, hopf, sphere):
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets[fn] = self._span(layer, fn)

        for modname, mod in list(sys.modules.items()):
            if modname != "hs2sphere" and not modname.startswith("hs2sphere."):
                continue
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    self._rebind(mod, name, targets[value])

        identities = verification.IDENTITIES
        for name, (tol, check) in list(identities.items()):
            self._replace_item(identities, name,
                               (tol, self._span(f"verification.{name}", check)))
        self._rebind(integrator.Trajectory, "to_csv",
                     self._writer(integrator.Trajectory.to_csv, 1))
        self._rebind(cli, "_write_exact_trajectory",
                     self._writer(cli._write_exact_trajectory, 0))
        self._rebind(cli, "json_dump", self._writer(cli.json_dump, 1))
        self._rebind(funcspace, "brentq",
                     self._count_evals(funcspace.brentq, "funcspace.root_evals"))
        for name in ("brentq", "minimize_scalar"):
            self._rebind(geodesics, name, self._count_calls(
                getattr(geodesics, name), "geodesics.root_solver.calls"))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def job_summary(self) -> dict[str, dict]:
        """Per job: span counts, self time and total time by layer."""
        child = [0.0] * len(self.spans)
        for layer_id, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (layer_id, start, end, parent, job) in enumerate(self.spans):
            rec = out.setdefault(job, {"calls": Counter(), "self_s": Counter(),
                                       "total_s": Counter(), "root_s": 0.0})
            layer = self.layers[layer_id]
            rec["calls"][layer] += 1
            rec["self_s"][layer] += end - start - child[i]
            rec["total_s"][layer] += end - start
            if parent < 0:
                rec["root_s"] += end - start
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"layers": self.layers, "spans": self.spans}, fh)
