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
    blowup_time,
    classify_existence,
    connect,
    exact_solution,
    log_map,
)
from .group import GroupElement
from .integrator import IntegratorConfig, compare_states, integrate
from .presets import PRESET_NAMES, make_preset
from .serialize import fmt_float, json_dump, json_dumps, write_trajectory_csv
from .verification import FLIPPABLE, run_suite


@dataclass
class RunConfig:
    n: int = 256
    preset: str | None = None
    u0x_cos: list = field(default_factory=list)
    u0x_sin: list = field(default_factory=list)
    rho0_mean: float = 0.0
    rho0_cos: list = field(default_factory=list)
    rho0_sin: list = field(default_factory=list)
    t_end: float = 1.0
    dt: float = 5e-4
    dealias: bool = False
    record_every: int = 0  # 0: choose ~10 recorded states automatically
    outdir: str = "."
    seed: int = 0
    samples: int = 100


_BOOL_WORDS = {"true": True, "on": True, "1": True,
               "false": False, "off": False, "0": False}


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name in ("u0x_cos", "u0x_sin", "rho0_cos", "rho0_sin"):
        if not raw:
            return []
        try:
            return [float(v) for v in raw.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad list for {name}: {raw!r}") from exc
    if name in ("n", "record_every", "seed", "samples"):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad integer for {name}: {raw!r}") from exc
    if name in ("t_end", "dt", "rho0_mean"):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad number for {name}: {raw!r}") from exc
    if name == "dealias":
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"bad boolean for dealias: {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    if name in ("preset", "outdir"):
        return raw
    raise ConfigError(f"unknown config key {name!r}")


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
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            overrides[f.name] = (
                _parse_value(f.name, flag) if isinstance(flag, str) else flag
            )
    cfg = replace(cfg, **overrides)
    if cfg.preset is not None and cfg.preset not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {cfg.preset!r}; choose from {PRESET_NAMES}"
        )
    for name, ok, rule in (
        ("n", cfg.n >= 8 and cfg.n % 2 == 0, "even and >= 8"),
        ("dt", 0.0 < cfg.dt < math.inf, "positive and finite"),
        ("t_end", 0.0 < cfg.t_end < math.inf, "positive and finite"),
        ("record_every", cfg.record_every >= 0, ">= 0"),
        ("samples", cfg.samples >= 1, ">= 1"),
    ):
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {getattr(cfg, name)!r}")
    return cfg


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


def cmd_solve(args) -> int:
    cfg = build_config(args)
    data = build_initial_data(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    report = blowup_time(data)
    if report.finite and cfg.t_end >= report.T - 1e-9:
        print(json_dumps(report.to_json_obj()))
        print(
            f"requested t_end={fmt_float(cfg.t_end)} reaches the maximal "
            f"time T={fmt_float(report.T)}",
            file=sys.stderr,
        )
        return 3

    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
    record_every = cfg.record_every or max(1, n_steps // 10)
    icfg = IntegratorConfig(
        dt=cfg.dt,
        t_end=cfg.t_end,
        dealias=cfg.dealias,
        record_every=record_every,
    )
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


def cmd_blowup(args) -> int:
    cfg = build_config(args)
    data = build_initial_data(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cls = classify_existence(data)
    obj = cls.report.to_json_obj()
    obj["schema_version"] = 1
    obj["classification"] = cls.label
    obj["speed"] = cls.report.speed
    json_dump(obj, outdir / "blowup.json")
    print(json_dumps(obj))
    return 10 if cls.report.finite else 0


def cmd_verify(args) -> int:
    cfg = build_config(args)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report = run_suite(
        n=cfg.n,
        samples=cfg.samples,
        seed=cfg.seed,
        sign_flip=getattr(args, "inject_sign_error", None),
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
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return GroupElement.from_json_obj(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load group element from {path!r}: {exc}") from exc


def cmd_logmap(args) -> int:
    cfg = build_config(args)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
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


def cmd_connect(args) -> int:
    cfg = build_config(args)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    a = _load_element(args.a)
    b = _load_element(args.b)
    result = connect(a, b)
    obj: dict = {"schema_version": 1, "kind": result.kind}
    if result.log is not None and result.log.kind != "empty":
        obj["r0"] = result.log.r0
        obj["period"] = result.log.period
    json_dump(obj, outdir / "connect.json")
    print(json_dumps(obj))
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--n", type=int, help="grid size (even, >= 8)")
    p.add_argument("--outdir", help="output directory")


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=PRESET_NAMES, help="named initial data")
    lists = (
        ("--u0x-cos", "u0x_cos", "cosine coefficients of u0x"),
        ("--u0x-sin", "u0x_sin", "sine coefficients of u0x"),
        ("--rho0-cos", "rho0_cos", "cosine coefficients of rho0"),
        ("--rho0-sin", "rho0_sin", "sine coefficients of rho0"),
    )
    for flag, dest, what in lists:
        p.add_argument(
            flag,
            dest=dest,
            help=f"{what}, comma-separated; write {flag}=-0.3,0.1 "
            "when the list starts with a minus sign",
        )
    p.add_argument("--rho0-mean", dest="rho0_mean", type=float, help="mean of rho0")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hs2sphere",
        description="Two-component Hunter-Saxton solver and geometry verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact vs RK4 cross-validated solve")
    _add_common(p)
    _add_data_options(p)
    p.add_argument("--t-end", dest="t_end", type=float, help="final time")
    p.add_argument("--dt", type=float, help="RK4 step")
    p.add_argument(
        "--dealias",
        choices=["on", "off"],
        help="2/3-rule dealiasing (default off: full resolution)",
    )
    p.add_argument(
        "--record-every", dest="record_every", type=int, help="state recording stride"
    )
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("blowup", help="existence classification and report")
    _add_common(p)
    _add_data_options(p)
    p.set_defaults(fn=cmd_blowup)

    p = sub.add_parser("verify", help="run the geometric identity suite")
    _add_common(p)
    p.add_argument("--samples", type=int, help="random samples per identity")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument(
        "--inject-sign-error",
        choices=FLIPPABLE,
        help="testing aid: corrupt one identity and confirm the suite fails",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("logmap", help="exponential-map preimages of an element")
    _add_common(p)
    p.add_argument("--target", required=True, help="group element JSON file")
    p.set_defaults(fn=cmd_logmap)

    p = sub.add_parser("connect", help="classify geodesics joining two elements")
    _add_common(p)
    p.add_argument("--a", required=True, help="first group element JSON file")
    p.add_argument("--b", required=True, help="second group element JSON file")
    p.set_defaults(fn=cmd_connect)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HS2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
