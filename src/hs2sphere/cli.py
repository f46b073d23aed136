"""Command line interface.

Subcommands
-----------
solve    exact and RK4 trajectories for given initial data, plus a
         cross-solver comparison report
blowup   existence classification and blow-up report
verify   the geometric identity suite (deterministic under a seed)
logmap   preimages of a stored group element under the exponential map
connect  classify geodesics joining two stored group elements

Configuration is read from an optional plain-text key=value file and
overridden by command line flags.  Initial data is entered as truncated
Fourier series for u0x and rho0 (so u0(0) = 0 holds by construction) or
chosen from named presets.  All numeric output carries 17 significant
digits.

Exit codes: 0 success (blowup: global existence), 1 verification failure
or runtime error, 2 configuration error, 3 solve beyond the maximal
existence time, 10 finite-time blow-up detected.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import funcspace as fs
from .errors import ConfigError, HS2Error, StepBlowupError
from .funcspace import PeriodicFunction, PeriodicGrid
from .geodesics import (
    InitialData,
    classify_existence,
    connect,
    exact_solution,
    log_map,
)
from .group import GroupElement
from .integrator import MAX_STEPS, IntegratorConfig, compare_states, integrate
from .presets import PRESET_NAMES, make_preset
from .serialize import fmt_float, json_dump, json_dumps, write_trajectory_csv
from .verification import FLIPPABLE, run_suite


# Largest grid size the CLI accepts: 4x the 2^18-point sweeps, and far
# below sizes whose grid alone would not fit in memory.
MAX_N = 2**20

# glibc's mallopt parameter numbers, from <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _setting(default, help: str):
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    """Every setting of the command line, declared once.

    A field's flag is ``--name`` with dashes, its config-file key is
    ``name``, and its annotation picks the parser of its raw value.
    """

    n: int = _setting(256, f"grid size (even, 8 to {MAX_N})")
    preset: str | None = _setting(
        None, f"named initial data: {', '.join(PRESET_NAMES)}"
    )
    u0x_cos: tuple = _setting((), "cosine coefficients of u0x, comma-separated")
    u0x_sin: tuple = _setting((), "sine coefficients of u0x, comma-separated")
    rho0_mean: float = _setting(0.0, "mean of rho0")
    rho0_cos: tuple = _setting((), "cosine coefficients of rho0, comma-separated")
    rho0_sin: tuple = _setting((), "sine coefficients of rho0, comma-separated")
    t_end: float = _setting(1.0, "final time")
    dt: float = _setting(5e-4, "RK4 step")
    dealias: bool = _setting(
        False, "2/3-rule dealiasing: on/off/true/false/1/0 (default off: full resolution)"
    )
    record_every: int = _setting(
        0, "state recording stride (default 0: about 10 recorded states)"
    )
    outdir: str = _setting(".", "output directory")
    seed: int = _setting(0, "random seed (>= 0)")
    samples: int = _setting(100, "random samples per identity")


_BOOL_WORDS = {"true": True, "on": True, "1": True,
               "false": False, "off": False, "0": False}


def _float_list(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(",")) if raw else ()


# RunConfig annotation -> (parser of a raw value, what the value must be)
_PARSERS = {
    "int": (int, "integer"),
    "float": (float, "number"),
    "tuple": (_float_list, "list"),
    "bool": (lambda raw: _BOOL_WORDS[raw.lower()], "boolean"),
    "str": (str, "string"),
    "str | None": (str, "string"),
}
_FIELDS = {f.name: f for f in fields(RunConfig)}
_FLAGS = {f"--{name.replace('_', '-')}": name for name in _FIELDS}


def _parse_value(name: str, raw: str):
    if name not in _FIELDS:
        raise ConfigError(f"unknown config key {name!r}")
    parse, what = _PARSERS[_FIELDS[name].type]
    raw = raw.strip()
    try:
        return parse(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad {what} for {name}: {raw!r}") from exc


def load_config_file(path: str) -> dict:
    """Parse a key=value file; '#' starts a comment, blank lines ignored."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        out[key] = _parse_value(key, raw)
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """The config file's settings, overridden by the flags given."""
    values = load_config_file(args.config) if args.config else {}
    for name in _FIELDS:
        raw = getattr(args, name, None)
        if raw is not None:
            values[name] = _parse_value(name, raw)
    cfg = RunConfig(**values)
    if cfg.preset is not None and cfg.preset not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {cfg.preset!r}; choose from {PRESET_NAMES}"
        )
    for name, ok, rule in (
        ("n", 8 <= cfg.n <= MAX_N and cfg.n % 2 == 0, f"even, >= 8 and <= {MAX_N}"),
        ("dt", 0.0 < cfg.dt < math.inf, "positive and finite"),
        ("t_end", 0.0 < cfg.t_end < math.inf, "positive and finite"),
        ("dt", 0.0 < cfg.dt and cfg.t_end / cfg.dt <= MAX_STEPS,
         f"at least t_end / {MAX_STEPS}"),
        ("record_every", cfg.record_every >= 0, ">= 0"),
        ("seed", cfg.seed >= 0, ">= 0"),
        ("samples", cfg.samples >= 1, ">= 1"),
    ):
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {getattr(cfg, name)!r}")
    # on n nodes mode k > n/2 aliases to mode n - k; the sine of mode n/2
    # vanishes there, and u0 = integral of u0x drops u0x's cosine of mode n/2
    for name in ("u0x_cos", "u0x_sin", "rho0_cos", "rho0_sin"):
        top = cfg.n // 2 - (name != "rho0_cos")
        if len(getattr(cfg, name)) > top:
            raise ConfigError(
                f"{name} gives modes up to {len(getattr(cfg, name))}, but"
                f" n = {cfg.n} carries {name} modes up to {top}"
            )
    return cfg


def _make_outdir(cfg: RunConfig) -> Path:
    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.outdir!r}: {exc}") from exc
    return outdir


def _fourier_sum(grid: PeriodicGrid, cos_coeffs, sin_coeffs) -> np.ndarray:
    vals = np.zeros(grid.n)
    for k, a in enumerate(cos_coeffs, start=1):
        vals += a * np.cos(2.0 * np.pi * k * grid.x)
    for k, b in enumerate(sin_coeffs, start=1):
        vals += b * np.sin(2.0 * np.pi * k * grid.x)
    return vals


def build_initial_data(cfg: RunConfig) -> InitialData:
    grid = PeriodicGrid(cfg.n)
    if cfg.preset is not None:
        return make_preset(cfg.preset, grid)
    has_series = any(
        (cfg.u0x_cos, cfg.u0x_sin, cfg.rho0_cos, cfg.rho0_sin)
    ) or cfg.rho0_mean != 0.0
    if not has_series:
        raise ConfigError(
            "no initial data: give --preset or Fourier coefficients"
        )
    # coefficients near the float range overflow in the sums and transforms;
    # InitialData refuses the non-finite energy that results
    with np.errstate(over="ignore", invalid="ignore"):
        u0x = PeriodicFunction(grid, _fourier_sum(grid, cfg.u0x_cos, cfg.u0x_sin))
        u0 = fs.antiderivative_from_zero(u0x)
        rho0 = PeriodicFunction(
            grid, cfg.rho0_mean + _fourier_sum(grid, cfg.rho0_cos, cfg.rho0_sin)
        )
        return InitialData(u0, rho0)


def _write_exact_trajectory(path, times, states) -> None:
    """Write the exact states (u, rho) at ``times`` as a t,x,u,rho CSV."""
    write_trajectory_csv(
        path,
        times,
        states[0][0].grid.x,
        [u.values for u, _ in states],
        [rho.values for _, rho in states],
    )


def cmd_solve(cfg: RunConfig, args) -> int:
    data = build_initial_data(cfg)
    outdir = _make_outdir(cfg)

    report = classify_existence(data)
    if report.reaches(cfg.t_end):
        print(json_dumps(report.to_json_obj()))
        print(
            f"requested t_end={fmt_float(cfg.t_end)} reaches the maximal "
            f"time T={fmt_float(report.T)}",
            file=sys.stderr,
        )
        return 3

    icfg = IntegratorConfig(dt=cfg.dt, t_end=cfg.t_end, dealias=cfg.dealias)
    icfg = replace(icfg, record_every=cfg.record_every or max(1, icfg.n_steps // 10))
    try:
        traj = integrate(data, icfg)
    except StepBlowupError as exc:
        print(f"integration halted: {exc}", file=sys.stderr)
        return 3

    traj.to_csv(outdir / "integrator_trajectory.csv")
    times = [float(t) for t in traj.times]
    exact = [exact_solution(data, t) for t in times]
    _write_exact_trajectory(outdir / "exact_trajectory.csv", times, exact)

    rel_u, rel_rho = [], []
    for i, (ue, rhoe) in enumerate(exact):
        eu, er = compare_states(*traj.state(i), ue, rhoe)
        rel_u.append(eu)
        rel_rho.append(er)
    comparison = {
        "schema_version": 1,
        "n": cfg.n,
        "dt": traj.dt,
        "dealias": cfg.dealias,
        "t": times,
        "rel_l2_u": rel_u,
        "rel_l2_rho": rel_rho,
        "max_rel_l2_u": max(rel_u),
        "max_rel_l2_rho": max(rel_rho),
    }
    json_dump(comparison, outdir / "comparison.json")
    print(
        f"wrote {outdir}/integrator_trajectory.csv, exact_trajectory.csv, "
        f"comparison.json (max rel u err {fmt_float(max(rel_u))}, "
        f"rho err {fmt_float(max(rel_rho))})"
    )
    return 0


def cmd_blowup(cfg: RunConfig, args) -> int:
    data = build_initial_data(cfg)
    outdir = _make_outdir(cfg)
    report = classify_existence(data)
    obj = report.to_json_obj()
    obj["schema_version"] = 1
    obj["classification"] = report.label
    obj["speed"] = report.speed
    json_dump(obj, outdir / "blowup.json")
    print(json_dumps(obj))
    return 10 if report.finite else 0


def cmd_verify(cfg: RunConfig, args) -> int:
    outdir = _make_outdir(cfg)
    report = run_suite(
        n=cfg.n,
        samples=cfg.samples,
        seed=cfg.seed,
        sign_flip=args.inject_sign_error,
    )
    json_dump(report, outdir / "verify_report.json")
    for r in report["results"]:
        mark = "PASS" if r["pass"] else "FAIL"
        print(
            f'{mark} {r["identity"]}: max residual '
            f'{fmt_float(r["max_residual"])} (tolerance {fmt_float(r["tolerance"])})'
        )
    print(f"report written to {outdir}/verify_report.json")
    return 0 if report["all_pass"] else 1


def _load_element(path: str) -> GroupElement:
    """The one group element stored at ``path``; anything else is a
    ``ConfigError``, a stack of elements included."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if int(obj["n"]) > MAX_N:
            raise ValueError(f"n must be <= {MAX_N}, got {obj['n']!r}")
        element = GroupElement.from_json_obj(obj)
        if element.phi.values.ndim != 1:
            raise ValueError(
                f"phi and alpha hold {element.phi.values.shape[:-1]} elements, not one"
            )
        return element
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"cannot load group element from {path!r}: {exc}") from exc


def cmd_logmap(cfg: RunConfig, args) -> int:
    outdir = _make_outdir(cfg)
    target = _load_element(args.target)
    result = log_map(target)
    obj: dict = {"schema_version": 1, "kind": result.kind}
    if result.kind != "empty":
        obj["r0"] = result.r0
        obj["period"] = result.period
        obj["u0"] = result.direction.u0.values.tolist()
        obj["rho0"] = result.direction.rho0.values.tolist()
        obj["n"] = target.grid.n
    json_dump(obj, outdir / "logmap.json")
    print(json_dumps({k: obj[k] for k in obj if k not in ("u0", "rho0")}))
    return 0


def cmd_connect(cfg: RunConfig, args) -> int:
    outdir = _make_outdir(cfg)
    a = _load_element(args.a)
    b = _load_element(args.b)
    if a.grid != b.grid:
        raise ConfigError(
            f"--a {args.a!r} has n = {a.grid.n} but --b {args.b!r} has"
            f" n = {b.grid.n}: both elements must live on one grid"
        )
    result = connect(a, b)
    obj: dict = {"schema_version": 1, "kind": result.kind}
    if result.log is not None and result.log.kind != "empty":
        obj["r0"] = result.log.r0
        obj["period"] = result.log.period
    json_dump(obj, outdir / "connect.json")
    print(json_dumps(obj))
    return 0


def _is_float_list(token: str) -> bool:
    try:
        _float_list(token)
    except ValueError:
        return False
    return True


def _join_setting_values(argv: list) -> list:
    """Attach each value that reads as numbers to its setting flag, as
    ``--u0x-cos=-0.3,0.1`` or ``--rho0-mean=-1e-3``.

    argparse reads a separate value that starts with a minus sign, other
    than a plain decimal, as a flag.  Only a token that parses as a
    comma-separated float list is joined, so a real flag after a setting
    flag still fails as a missing value.
    """
    out: list = []
    for token in argv:
        if out and out[-1] in _FLAGS and _is_float_list(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


_DATA_KEYS = ("n", "outdir", "preset", "u0x_cos", "u0x_sin", "rho0_mean",
              "rho0_cos", "rho0_sin")


@functools.lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.

    ``parse_args`` returns a fresh namespace on every call and leaves the
    parser as it was, so every call of :func:`main` can share it.
    """
    parser = argparse.ArgumentParser(
        prog="hs2sphere",
        description="Two-component Hunter-Saxton solver and geometry verifier",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, keys):
        """A subcommand with ``--config`` and the setting flags of ``keys``.

        A setting flag keeps its raw string; ``build_config`` parses it as
        it parses the same key in a config file.
        """
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="key=value configuration file")
        for flag, key in _FLAGS.items():
            if key in keys:
                p.add_argument(flag, help=_FIELDS[key].metadata["help"])
        p.set_defaults(fn=fn)
        return p

    add("solve", cmd_solve, "exact vs RK4 cross-validated solve",
        (*_DATA_KEYS, "t_end", "dt", "dealias", "record_every"))
    add("blowup", cmd_blowup, "existence classification and report", _DATA_KEYS)
    p = add("verify", cmd_verify, "run the geometric identity suite",
            ("n", "outdir", "seed", "samples"))
    p.add_argument(
        "--inject-sign-error",
        choices=FLIPPABLE,
        help="testing aid: corrupt one identity and confirm the suite fails",
    )
    p = add("logmap", cmd_logmap, "exponential-map preimages of an element",
            ("outdir",))
    p.add_argument("--target", required=True, help="group element JSON file")
    p = add("connect", cmd_connect, "classify geodesics joining two elements",
            ("outdir",))
    p.add_argument("--a", required=True, help="first group element JSON file")
    p.add_argument("--b", required=True, help="second group element JSON file")
    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed blocks below 32 MiB for reuse.

    By default numpy temporaries of 128 KiB to 1 MiB come from mmap, or
    from heap growth that a later free trims away, so the kernel maps and
    zero-fills their pages again on every call: about 2,300 minor faults
    per ``verify --n 256 --samples 10``, nearly all in ``group_axioms``.
    32 MiB is the ceiling of glibc's own dynamic mmap threshold on 64-bit,
    and glibc keeps the trim threshold at twice the mmap threshold.  Set
    once per process by :func:`main`, which owns its process; importing
    the library leaves the allocator alone.  A no-op where the C library
    has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    except (OSError, AttributeError, TypeError):
        pass


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = make_parser()
    args = parser.parse_args(
        _join_setting_values(sys.argv[1:] if argv is None else list(argv))
    )
    try:
        return args.fn(build_config(args), args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HS2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
