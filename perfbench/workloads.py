"""The benchmark's workloads: seeded inputs, one job each, output checks.

Every job's inputs come from numpy's generator seeded with the benchmark
seed and the job's index.  The library's own random-field helpers are not
used, so a library change cannot change what a workload runs.  A job is
split into the timed library call (``Job.call``) and an untimed check of
its outputs (``Job.check``), which raises :class:`CheckFailed` or returns a
sha256 digest of the job's deterministic outputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from hs2sphere import cli, geodesics
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid

# Entropy of the warm-up job.  It does not depend on the benchmark seed, so
# every run in a checkout repeats it and can compare its digest and counts.
WARMUP_ENTROPY = (20111108, 2727)

SOLVE_ARGS = ["--n", "256", "--t-end", "1", "--dt", "5e-4", "--dealias", "off"]
SOLVE_MAX_REL_L2 = 1e-6
VERIFY_N = 256
VERIFY_SAMPLES = 10
LARGE_N = 4096
LARGE_MODES = 8
# A run holds whole rounds of jobs: exact-large alternates global and finite
# data, whose costs differ, so every run holds as many of one as the other.
ROUND = {"solve": 1, "verify": 1, "exact-large": 2}
ENERGY_RTOL = 1e-8
MASS_RTOL = 1e-10


class CheckFailed(Exception):
    """A job's outputs failed the workload's correctness check."""


@dataclass(frozen=True)
class Job:
    key: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str]


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _cli_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _decaying(rng: np.random.Generator, modes: int, scale: float) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, modes) * scale / np.arange(1, modes + 1)


# -- solve ----------------------------------------------------------------


def _solve_job(rng, key, outdir: Path) -> Job:
    """Low-mode global-existence data: rho0_mean exceeds sum |rho0 coeffs|."""
    u_cos, u_sin = _decaying(rng, 3, 0.4), _decaying(rng, 3, 0.4)
    r_cos, r_sin = _decaying(rng, 3, 0.3), _decaying(rng, 3, 0.3)
    bound = float(np.abs(r_cos).sum() + np.abs(r_sin).sum())
    mean = rng.uniform(1.5, 2.5) * bound + 0.2
    # Coefficient lists are passed as --flag=<list>: argparse would read a
    # separate "-0.3,..." argument as an unknown flag.
    argv = ["solve", *SOLVE_ARGS, "--outdir", str(outdir),
            f"--u0x-cos={_cli_list(u_cos)}", f"--u0x-sin={_cli_list(u_sin)}",
            f"--rho0-mean={mean!r}",
            f"--rho0-cos={_cli_list(r_cos)}", f"--rho0-sin={_cli_list(r_sin)}"]
    report = outdir / "comparison.json"

    def call():
        report.unlink(missing_ok=True)
        return cli.main(argv)

    def check(code) -> str:
        if code != 0:
            raise CheckFailed(f"solve exited with {code}")
        raw = report.read_bytes()
        cmp = json.loads(raw)
        for name in ("max_rel_l2_u", "max_rel_l2_rho"):
            if not cmp[name] < SOLVE_MAX_REL_L2:
                raise CheckFailed(f"{name} = {cmp[name]!r} >= {SOLVE_MAX_REL_L2}")
        return _sha256(raw)

    return Job(key, "global", call, check)


# -- verify ---------------------------------------------------------------


def _verify_job(rng, key, outdir: Path) -> Job:
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["verify", "--n", str(VERIFY_N), "--samples", str(VERIFY_SAMPLES),
            "--seed", str(seed), "--outdir", str(outdir)]
    report = outdir / "verify_report.json"

    def call():
        report.unlink(missing_ok=True)
        return cli.main(argv)

    def check(code) -> str:
        if code != 0:
            raise CheckFailed(f"verify exited with {code}")
        raw = report.read_bytes()
        if json.loads(raw)["all_pass"] is not True:
            raise CheckFailed("verify report has all_pass false")
        return _sha256(raw)

    return Job(key, f"seed {seed}", call, check)


# -- exact-large ----------------------------------------------------------


def _large_job(rng, key, index: int) -> Job:
    """Band-limited data at n = 4096; even indices global, odd finite.

    Global data has rho0 > 0.  Finite data has rho0 = 0 at the node where
    u0x is least, so that point reaches f = 0 first; at T/2 every point
    then has Re f >= 1 / (2 cos(cT/2)) >= 1/2 and the solution stays
    resolved.  The job classifies the data, then evaluates the exact
    solution at t = 0.5 (global) or t = T/2 (finite).
    """
    grid = PeriodicGrid(LARGE_N)
    x = 2.0 * np.pi * np.outer(np.arange(1, LARGE_MODES + 1), grid.x)
    k = 2.0 * np.pi * np.arange(1, LARGE_MODES + 1)
    a, b = _decaying(rng, LARGE_MODES, 0.6), _decaying(rng, LARGE_MODES, 0.6)
    c, d = _decaying(rng, LARGE_MODES, 0.4), _decaying(rng, LARGE_MODES, 0.4)
    u0x = a @ np.cos(x) + b @ np.sin(x)
    u0 = (a / k) @ np.sin(x) - (b / k) @ (np.cos(x) - 1.0)
    fluct = c @ np.cos(x) + d @ np.sin(x)
    intended = "global" if index % 2 == 0 else "finite"
    if intended == "global":
        shift = rng.uniform(1.2, 2.0) * float(np.abs(c).sum() + np.abs(d).sum()) + 0.1
    else:
        shift = -fluct[np.argmin(u0x)]
    rho0 = shift + fluct
    data = geodesics.InitialData(PeriodicFunction(grid, u0),
                                 PeriodicFunction(grid, rho0))
    energy0 = 0.25 * float(np.mean(u0x**2 + rho0**2))
    mass0 = float(np.mean(rho0))
    mass_scale = float(np.mean(np.abs(rho0)))
    freq = 2j * np.pi * np.fft.fftfreq(LARGE_N, d=1.0 / LARGE_N)
    freq[LARGE_N // 2] = 0.0

    def call():
        cls = geodesics.classify_existence(data)
        t = 0.5 * cls.T_physical if not cls.global_existence else 0.5
        u, rho = geodesics.exact_solution(data, t)
        return cls, t, u, rho

    def check(out) -> str:
        cls, t, u, rho = out
        if cls.label != intended:
            raise CheckFailed(f"classified {cls.label}, generated {intended}")
        if not t < cls.T_physical:
            raise CheckFailed(f"t = {t!r} is not below T = {cls.T_physical!r}")
        if not (np.all(np.isfinite(u.values)) and np.all(np.isfinite(rho.values))):
            raise CheckFailed("non-finite solution")
        ux = np.fft.ifft(np.fft.fft(u.values) * freq).real
        energy = 0.25 * float(np.mean(ux**2 + rho.values**2))
        if not abs(energy - energy0) <= ENERGY_RTOL * energy0:
            raise CheckFailed(f"energy {energy!r} drifted from {energy0!r}")
        mass = float(np.mean(rho.values))
        if not abs(mass - mass0) <= MASS_RTOL * mass_scale:
            raise CheckFailed(f"integral of rho {mass!r} drifted from {mass0!r}")
        return _sha256(u.values.tobytes(), rho.values.tobytes())

    return Job(key, intended, call, check)


def make_job(workload: str, seed: int | None, index: int, workdir: Path) -> Job:
    """Job ``index`` of a run with benchmark seed ``seed``; None: warm-up."""
    if seed is None:
        rng, key = np.random.default_rng(WARMUP_ENTROPY), "warmup"
    else:
        rng, key = np.random.default_rng([seed, index]), f"{seed}:{index}"
    outdir = workdir / "jobs" / workload
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "solve":
        return _solve_job(rng, key, outdir)
    if workload == "verify":
        return _verify_job(rng, key, outdir)
    if workload == "exact-large":
        return _large_job(rng, key, index)
    raise ValueError(f"unknown workload {workload!r}")
