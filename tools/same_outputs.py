"""Byte identity of the command line outputs: a base commit against the working tree.

    python3 tools/same_outputs.py --base HEAD [--workdir DIR]

The two sides are made as ``tools/bench_pairs.py`` makes them: ``parent``
holds a ``git archive`` of ``--base``, ``change`` a copy of the working
tree.  The parent side first writes the group elements that ``logmap`` and
``connect`` read, once, from fixed seeds, at n = 8, 64 and 256, into
``inputs/`` (:func:`write_elements`).  Then every run of :func:`commands`
goes once through each side, each in a fresh interpreter:

    python3 -m hs2sphere.cli <command> ... --outdir <outdir>

with that side's ``src/`` on ``PYTHONPATH``.  A run keeps its exit code,
its stdout and stderr, the outdir's path masked as ``<outdir>``, and the
files it wrote, under ``runs/<side>/<run>/``.  The script prints every
path under ``runs/<side>/`` that one side lacks or that holds different
bytes on the two sides, and exits 1 if there is one, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import SIDES, make_sides

SIZES = (8, 64, 256)
RANDOM_SEEDS = range(5)
# the elements write_elements writes at each size
ELEMENTS = ("identity", "antipode", "offgrid-zero", "empty", "single", "near-one",
            *(f"random{s}" for s in RANDOM_SEEDS), "random0-turned",
            "winding+1", "winding-1")
MASK = "<outdir>"


def write_elements(inputs: Path) -> None:
    """``<name>-n<n>.json`` for every name of ELEMENTS and n of SIZES."""
    import numpy as np

    from hs2sphere import randfields as rf
    from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
    from hs2sphere.group import GroupElement, inverse, multiply
    from hs2sphere.serialize import json_dump

    inputs.mkdir(parents=True, exist_ok=True)
    for n in SIZES:
        grid = PeriodicGrid(n)
        x = grid.x

        def at(alpha, winding=0):  # phi = x
            alpha = PeriodicFunction(grid, alpha)
            return GroupElement(PeriodicFunction(grid, x), alpha, winding)

        antipode = at(np.full(n, 2.0 * np.pi))
        elements = {
            "identity": GroupElement.identity(grid),
            "antipode": antipode,
            # alpha crosses zero between nodes and at none of them
            "offgrid-zero": at(0.5 * np.sin(2.0 * np.pi * (x - 0.5 / n))),
            "empty": at(2.0 * np.pi + 2.0 * np.sin(2.0 * np.pi * x)),
            "single": at(2.0 * np.sin(2.0 * np.pi * x)),
            # 1e-7 from the identity, and at +-1 for the log's |mu| test
            "near-one": at(1e-7 * np.sin(2.0 * np.pi * x)),
        }
        for seed in RANDOM_SEEDS:
            elements[f"random{seed}"] = rf.group_element(grid, np.random.default_rng(seed))
        # random0 (id, -2 pi): random0 times its inverse is the antipode
        elements["random0-turned"] = multiply(elements["random0"], inverse(antipode))
        # alpha winds once either way: exp(i alpha / 2) passes -1 between nodes
        for w, sign in ((1, "+"), (-1, "-")):
            elements[f"winding{sign}1"] = at(4.0 * np.pi * w * x + 0.3, w)
        assert tuple(elements) == ELEMENTS
        for name, element in elements.items():
            json_dump(element.to_json_obj(), inputs / f"{name}-n{n}.json")


CONNECT_PAIRS = (
    ("random0", "random0"), ("random0", "random1"), ("random2", "random3"),
    ("random4", "identity"), ("identity", "random4"), ("random0", "random0-turned"),
    ("offgrid-zero", "identity"), ("identity", "offgrid-zero"), ("empty", "identity"),
    ("single", "identity"), ("near-one", "identity"),
    ("winding+1", "identity"), ("identity", "winding+1"),
    ("winding-1", "identity"), ("identity", "winding-1"),
)


def commands(inputs: Path) -> list[tuple[str, list[str]]]:
    """(run name, argv after ``hs2sphere``); each run adds ``--outdir``."""
    runs = [
        ("solve-smooth-global", ["solve", "--preset", "smooth-global"]),
        ("solve-stationary", ["solve", "--preset", "stationary"]),
        ("solve-hs-blowup", ["solve", "--preset", "hs-blowup"]),
        ("solve-smooth-global-dealiased",
         ["solve", "--preset", "smooth-global", "--dealias", "on", "--record-every", "7"]),
        ("solve-hs-blowup-dealiased",
         ["solve", "--preset", "hs-blowup", "--dealias", "on", "--record-every", "7"]),
        ("solve-smooth-global-n64",
         ["solve", "--preset", "smooth-global", "--n", "64", "--t-end", "3", "--dt", "1e-3"]),
        ("solve-stationary-n32",
         ["solve", "--preset", "stationary", "--n", "32", "--t-end", "0.25", "--dt", "1e-2"]),
        ("solve-hs-blowup-n1024",
         ["solve", "--preset", "hs-blowup", "--n", "1024", "--t-end", "0.5", "--dt", "1e-3"]),
        ("solve-coefficients",
         ["solve", "--n", "128", "--u0x-cos", "0.3,0.1", "--u0x-sin", "-0.2",
          "--rho0-mean", "1", "--rho0-sin", "0.4", "--t-end", "0.8"]),
        ("solve-near-T", ["solve", "--preset", "hs-blowup", "--t-end", "1.7405",
                          "--dt", "1e-3"]),
        # exit 3: t_end past T, and the step guard's halt of an unstable step
        ("solve-past-T", ["solve", "--preset", "hs-blowup", "--t-end", "2"]),
        ("solve-halt", ["solve", "--preset", "smooth-global", "--t-end", "20", "--dt", "0.1"]),
    ]
    for preset in ("stationary", "smooth-global", "hs-blowup"):
        runs.append((f"blowup-{preset}", ["blowup", "--preset", preset]))
    runs.append(("blowup-coefficients",
                 ["blowup", "--u0x-cos", "0.5", "--rho0-mean", "0.2", "--rho0-cos", "0.3"]))
    # runs whose rho0 leaves grid cells open, so that _zeros subdivides
    double_at_node = ["blowup", "--rho0-mean", "0.5", "--rho0-cos", "0.5", "--u0x-sin", "0.3"]
    runs += [
        ("blowup-double-root-at-node", double_at_node),
        ("blowup-double-root-at-node-n4096", [*double_at_node, "--n", "4096"]),
        ("blowup-double-root-between-nodes",
         ["blowup", "--rho0-mean", "0.5", "--rho0-cos=0,-0.4087924065757918",
          "--rho0-sin=0,0.2879040957089227", "--u0x-cos", "0.2"]),
        ("blowup-near-touch-global",
         ["blowup", "--rho0-mean", "1", "--rho0-cos=-0.999999999", "--u0x-sin", "0.5"]),
        ("blowup-nyquist-double-roots",
         ["blowup", "--n", "16", "--rho0-mean", "1", "--rho0-cos", "0,0,0,0,0,0,0,1"]),
    ]
    runs.append(("verify", ["verify", "--seed", "0", "--samples", "100"]))
    for n in SIZES:
        for name in ELEMENTS:
            runs.append((f"logmap-{name}-n{n}",
                         ["logmap", "--target", str(inputs / f"{name}-n{n}.json")]))
        for a, b in CONNECT_PAIRS:
            runs.append((f"connect-{a}-{b}-n{n}",
                         ["connect", "--a", str(inputs / f"{a}-n{n}.json"),
                          "--b", str(inputs / f"{b}-n{n}.json")]))
    runs.append(("connect-grid-mismatch",
                 ["connect", "--a", str(inputs / "random0-n8.json"),
                  "--b", str(inputs / "random0-n64.json")]))
    return runs


def mask(text: str, outdir: Path) -> str:
    """``text`` with every occurrence of the outdir's path read as MASK."""
    return text.replace(str(outdir), MASK)


def run(side: Path, argv: list[str], record: Path) -> None:
    """One run of the side's CLI: ``exit_code``, ``stdout`` and ``stderr`` go
    to ``record``, and the run writes its files to ``record/out``."""
    outdir = record / "out"
    env = {**os.environ, "PYTHONPATH": str(side / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "hs2sphere.cli", *argv, "--outdir", str(outdir)],
        cwd=side, env=env, capture_output=True, text=True)
    record.mkdir(parents=True, exist_ok=True)
    (record / "exit_code").write_text(f"{proc.returncode}\n")
    (record / "stdout").write_text(mask(proc.stdout, outdir))
    (record / "stderr").write_text(mask(proc.stderr, outdir))


def differing(parent: Path, change: Path) -> list[str]:
    """Files under either directory, relative to it, that the other lacks or
    holds with different bytes."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for root in (parent, change)]
    return sorted(
        name for name in files[0] | files[1]
        if name not in files[0] or name not in files[1]
        or (parent / name).read_bytes() != (change / name).read_bytes()
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision of the parent side")
    p.add_argument("--workdir", type=Path, help="where the sides, inputs and runs "
                   "go (default: a new temporary directory)")
    args = p.parse_args(argv)
    workdir = (args.workdir or Path(tempfile.mkdtemp(prefix="same_outputs-"))).resolve()
    sides = make_sides(args.base, workdir)
    inputs = workdir / "inputs"
    env = {**os.environ, "PYTHONPATH": str(sides["parent"] / "src")}
    subprocess.run([sys.executable, "-c", "import sys; import same_outputs as s; "
                    "s.write_elements(s.Path(sys.argv[1]))", str(inputs)],
                   cwd=Path(__file__).resolve().parent, env=env, check=True)
    runs = commands(inputs)
    for name, cli_args in runs:
        for side in SIDES:
            run(sides[side], cli_args, workdir / "runs" / side / name)
    found = differing(*(workdir / "runs" / side for side in SIDES))
    for name in found:
        print(name)
    print(f"{len(runs)} runs on each side, {len(found)} differing paths "
          f"(runs under {workdir / 'runs'})", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
