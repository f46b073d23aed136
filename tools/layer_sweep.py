"""Per-layer n-sweep: the wall time and memory peak of each library layer.

    python3 tools/layer_sweep.py [--n 256 1024 4096] [--repeat 7]

Runs in process on the package under ``src/`` next to this script.  For
every grid size n and every layer it times ``--repeat`` calls on
prepared inputs and keeps the least wall time, then runs one more call
under ``tracemalloc`` and records the peak of what that call allocates.
It prints one JSON object:

    {"n": [...], "repeat": k, "env": {...},
     "layers": {layer: {n: {"best_s": ..., "peak_kib": ...}}}}

The layers, with S = 10 rows wherever a stack is taken:

- ``arithmetic``: (f * g + f) / 2 - g on (S, n) stacks, four operators
- ``derivative``: ``funcspace.derivative`` of an (S, n) stack
- ``compose``: ``funcspace.compose`` of a stack with a stack of lifts
- ``interpolant``: prepare ``funcspace.Interpolant`` of an (S, n) stack
  and evaluate it at n uniform random points per row, off the grid
- ``multiply`` and ``inverse``: ``group.multiply`` and ``group.inverse``
  on stacks of S group elements
- ``draw_inputs``: ``randfields.stacks`` of one quotient tangent, one
  tangent and one group element, S samples each, from a fresh generator
- ``translate``: the right translation of ``metric_right_invariance``,
  two stacked tangents composed with one stack of group elements
- ``kahler_J`` and ``christoffel``: ``geometry.kahler_J`` of a stack of S
  quotient tangents and ``geometry.christoffel`` of two, each with the
  result's ``u1x`` read, as every formula that takes the result reads it
- ``exact_solution`` and ``blowup_time``: the ``hs-blowup`` preset at
  t = T / 2, each call on fresh ``InitialData`` so that no cached
  ``BlowupReport`` is reused
- ``exact_solution_stack``: ``exact_solution`` of that preset, on fresh
  ``InitialData``, at the 11 times a default ``solve`` run records
  (t = 0, 0.1, ..., 1 from 2,000 steps of 5e-4) in one call
- ``rhs``: ``integrator.rhs`` on that preset, dealiased
- ``rk4_step`` and ``rk4_step_dealiased``: ``integrator.integrate`` of one
  step, dt = 5e-4, on the ``smooth-global`` preset, with ``dealias`` off
  and on; the call includes the run's setup and its recorded states
- ``run_suite_block``: ``verification.run_suite`` of one block
  (``verification.BLOCK`` samples)
- ``rho_roots``: ``geodesics._zeros`` of white noise,
  ``np.random.default_rng(1).normal(size=n)``: every node cell starts
  open, and the search bisects 7 to 10 levels deep at n = 64 to 4096

The inputs are drawn from fixed seeds.  The sweep first sets glibc's
allocator thresholds as the command line tool does
(``cli._keep_freed_memory``): under glibc's dynamic mmap threshold a
layer's time depends on what the process allocated before it (at
n = 1024 a stacked ``multiply`` read 1.9 ms in one tree and 3.4 ms in
another, and 1.9 ms in both once the thresholds were set).  Wall times
are machine-dependent; compare two trees on one machine, run after run.

One sweep resolves only large changes.  On a shared 2-vCPU host, three
alternating ``--repeat 7`` rounds of two trees moved layers that neither
tree changed by as much as changed ones: ``kahler_J`` at n = 256 by 32%,
``rk4_step`` by 26%.  Read a per-layer difference below about 30% as
noise, and make speed claims with the paired end-to-end runs of
``tools/bench_pairs.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hs2sphere import funcspace as fs  # noqa: E402
from hs2sphere import geometry as gm  # noqa: E402
from hs2sphere import randfields as rf  # noqa: E402
from hs2sphere import verification  # noqa: E402
from hs2sphere.cli import _keep_freed_memory  # noqa: E402
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid  # noqa: E402
from hs2sphere.geodesics import (  # noqa: E402
    InitialData,
    _zeros,
    blowup_time,
    exact_solution,
)
from hs2sphere.group import inverse, multiply  # noqa: E402
from hs2sphere.integrator import IntegratorConfig, integrate, rhs  # noqa: E402
from hs2sphere.presets import make_preset  # noqa: E402

ROWS = 10


def layers(n: int) -> dict:
    """Layer name -> (prepare, call): ``call(prepare())`` is one measured call."""
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(n)
    draws = (rf.g_tangent, rf.group_element, rf.group_element,
             rf.k_tangent, rf.k_tangent)
    U, a, b, u, v = rf.stacks(grid, rng, ROWS, *draws)
    f, g = U.u1, U.u2
    inputs = (rf.k_tangent, rf.g_tangent, rf.group_element)
    translate = verification._right_translate
    points = rng.uniform(size=(ROWS, n))
    (V,) = rf.stacks(grid, rng, ROWS, rf.g_tangent)
    d = make_preset("hs-blowup", grid)
    t = 0.5 * blowup_time(d).T
    noise = PeriodicFunction(grid, np.random.default_rng(1).normal(size=n))
    recorded = np.arange(0, 2001, 200) * 5e-4
    smooth = make_preset("smooth-global", grid)
    steps = {
        dealias: IntegratorConfig(dt=5e-4, t_end=5e-4, dealias=dealias)
        for dealias in (False, True)
    }

    def fresh():
        return InitialData(d.u0, d.rho0)

    def same():  # the inputs above serve every call
        return None

    return {
        "arithmetic": (same, lambda _: (f * g + f) / 2.0 - g),
        "derivative": (same, lambda _: fs.derivative(f)),
        "compose": (same, lambda _: fs.compose(f, a.phi)),
        "interpolant": (same, lambda _: fs.Interpolant(f)(points)),
        "multiply": (same, lambda _: multiply(a, b)),
        "inverse": (same, lambda _: inverse(a)),
        "draw_inputs": (
            lambda: np.random.default_rng(n),
            lambda gen: rf.stacks(grid, gen, ROWS, *inputs),
        ),
        "translate": (same, lambda _: [translate(a, w) for w in (U, V)]),
        "kahler_J": (same, lambda _: gm.kahler_J(u).u1x),
        "christoffel": (same, lambda _: gm.christoffel(u, v).u1x),
        "exact_solution": (fresh, lambda data: exact_solution(data, t)),
        "exact_solution_stack": (fresh, lambda data: exact_solution(data, recorded)),
        "blowup_time": (fresh, blowup_time),
        "rho_roots": (same, lambda _: _zeros(noise)),
        "rhs": (same, lambda _: rhs(d.u0, d.rho0, dealias=True)),
        "rk4_step": (same, lambda _: integrate(smooth, steps[False])),
        "rk4_step_dealiased": (same, lambda _: integrate(smooth, steps[True])),
        "run_suite_block": (
            same, lambda _: verification.run_suite(n, verification.BLOCK, seed=n)
        ),
    }


def measure(prepare, call, repeat: int) -> dict:
    """Least wall time of ``repeat`` calls, and one call's tracemalloc peak."""
    best = float("inf")
    for _ in range(repeat):
        arg = prepare()
        start = time.perf_counter()
        call(arg)
        best = min(best, time.perf_counter() - start)
    arg = prepare()
    tracemalloc.start()
    try:
        call(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"best_s": best, "peak_kib": peak / 1024.0}


def sweep(sizes: list[int], repeat: int) -> dict:
    table: dict[str, dict] = {}
    for n in sizes:
        for name, (prepare, call) in layers(n).items():
            table.setdefault(name, {})[str(n)] = measure(prepare, call, repeat)
    return {
        "n": sizes,
        "repeat": repeat,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "platform": platform.platform()},
        "layers": table,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, nargs="+", default=[256, 1024, 4096])
    p.add_argument("--repeat", type=int, default=7, help="timed calls per layer")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    _keep_freed_memory()
    print(json.dumps(sweep(args.n, args.repeat), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
