"""Paired benchmark record: perfbench at a base commit against the working tree.

    python3 tools/bench_pairs.py --pr N --base HEAD --seconds 15 \\
        --series solve:3801-3810 --series verify:3811-3815 \\
        --series exact-large:3816-3820

Each side is a directory of its own under ``--workdir``: ``parent`` holds
a ``git archive`` of ``--base``, ``change`` a copy of the working tree
(tracked and untracked files that git does not ignore).  For each seed of
a series the script runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

once on each side, unchanged, as a black box, and reads the JSON object
that run.py prints last.  Pair i runs the parent first for even i and the
change first for odd i.  It writes ``BENCH_<pr>.json`` (``--out``) in the
layout of ``BENCH_33.json``:

- both git SHAs and both source hashes (perfbench's ``source_sha256``),
  and the environment
- per series: the seeds, the side that ran first, and the attempted and
  failed job counts of every run
- per end-to-end metric: each side's median, quartiles (numpy's linear
  percentiles) and runs; the pairs in which the change reads better or
  worse (ties count for neither); median(change) / median(parent); and
  |median(change) - median(parent)| over the parent's interquartile range
- per workload: the job keys that both sides ran, read from each side's
  ``.bench_work/results/``, and how many of them wrote different digests

perfbench is frozen, and its known defects stay in every record this
script writes.  Do not read these numbers as measurements:

- a traced ``exact-large`` job reuses the ``BlowupReport`` cached on its
  ``InitialData`` by the untraced call, so the trace never runs the
  blow-up analysis
- the ``funcspace.spectral`` layer misses the transforms that carry a
  derivative (``geometry``, ``randfields``) and the slope transform
  behind ``phi_x`` and the monotonicity check
- ``funcspace.trig_interpolate.dense_mib``, ``funcspace.root_evals``,
  ``geodesics.root_solver.calls`` and ``import.scipy_s`` read 0
- ``perfbench/README.md`` gives stale call counts and a CLI defect that
  is fixed
- the ``exact-large`` "why" names an O(n^2) root finding and a 256 MiB
  dense matrix that no longer exist
- ``setup_s`` depends on bytecode caches: the untimed import writes none
  under ``PYTHONDONTWRITEBYTECODE=1``

This script reads only ``--trace 0`` results, so the first four do not
enter its numbers; ``setup_s`` does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # names of equal length: same path layout
METRICS = {"setup_s": "lower", "job_p50_s": "lower", "jobs_per_s": "higher",
           "peak_rss_mib": "lower"}


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "runs": list(runs)}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs: parent[i] and change[i] share a seed."""
    p, c = quartiles(parent), quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (b - a) for a, b in zip(parent, change)]
    iqr = p["q3"] - p["q1"]
    gap = abs(c["median"] - p["median"])
    return {
        "parent": p, "change": c, "better": better,
        "change_better_pairs": sum(d > 0 for d in diffs),
        "change_worse_pairs": sum(d < 0 for d in diffs),
        "change_over_parent": c["median"] / p["median"],
        "median_difference_over_parent_iqr": (
            gap / iqr if iqr else float("inf") if gap else 0.0),
    }


def series_record(workload: str, pairs: list[dict]) -> dict:
    """The series entry of a run record.  Each pair holds ``seed``,
    ``first`` (a side) and, per side, the JSON line that run.py printed."""
    out = {"workload": workload, "seeds": [p["seed"] for p in pairs],
           "pairs": len(pairs), "first_side": [p["first"] for p in pairs],
           "correct": {s: [p[s]["correct"] for p in pairs] for s in SIDES}}
    for field in ("attempted", "failed"):
        out[field] = {s: [p[s][field] for p in pairs] for s in SIDES}
    for name, better in METRICS.items():
        runs = [[p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES]
        out[name] = compare(*runs, better)
    return out


def digest_record(pairs: list[dict]) -> dict:
    """Job keys ("<seed>:<index>") that both sides ran over ``pairs``, and
    how many of them wrote different digests."""
    jobs = {s: {k: v for p in pairs for k, v in p[s]["digests"].items()}
            for s in SIDES}
    both = sorted(set(jobs["parent"]) & set(jobs["change"]))
    different = [k for k in both if jobs["parent"][k] != jobs["change"][k]]
    return {"job_keys_both_sides_ran": len(both), "different": len(different),
            "different_keys": different}


def run_series(workload: str, seeds: list[int], run) -> list[dict]:
    """One pair of ``run(side, workload, seed)`` results per seed; pair i
    runs the parent first for even i and the change first for odd i."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pairs.append({"seed": seed, "first": order[0],
                      **{side: run(side, workload, seed) for side in order}})
    return pairs


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def make_sides(base: str, workdir: Path) -> dict[str, Path]:
    """``parent``: git archive of base; ``change``: the working tree."""
    sides = {s: workdir / s for s in SIDES}
    for path in sides.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", base], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive, check=True)
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, files.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the tree is gone
            (sides["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, sides["change"] / name)
    return sides


def run_side(side: Path, workload: str, seed: int, seconds: int) -> dict:
    """run.py's last JSON line, with the details file's source hash and
    {job key: digest} of the jobs that passed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=side, text=True, capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{side.name} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((side / ".bench_work" / "results"
                          / f"{workload}-seed{seed}-trace0.json").read_text())
    result["source_sha256"] = details["env"]["source_sha256"]
    result["digests"] = {j["key"]: j["digest"] for j in details["worker"]["jobs"]
                         if j["ok"]}
    return result


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    p.add_argument("--base", required=True, help="git revision of the parent side")
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--series", action="append", required=True,
                   metavar="WORKLOAD:FIRST-LAST", help="one series of seeds")
    p.add_argument("--workdir", type=Path, help="where the two sides go "
                   "(default: a new temporary directory)")
    p.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the root")
    args = p.parse_args(argv)
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    sides = make_sides(args.base, workdir)

    def run(side: str, workload: str, seed: int) -> dict:
        result = run_side(sides[side], workload, seed, args.seconds)
        value = result["metrics"]["job_p50_s"]["value"]
        print(f"{workload} seed {seed} {side}: job_p50_s {value:.6g}", file=sys.stderr)
        return result

    series, by_workload = {}, {}
    for spec in args.series:
        workload, _, seeds = spec.partition(":")
        pairs = run_series(workload, seed_range(seeds), run)
        letter = chr(ord("A") + len(by_workload.get(workload, [])))
        series[f"{workload}-{letter}"] = series_record(workload, pairs)
        by_workload.setdefault(workload, []).append(pairs)

    dirty = bool(git("status", "--porcelain"))
    record = {
        "what": "perfbench end-to-end metrics at the parent commit and at this "
                "change, the last JSON line of each run; written by "
                "tools/bench_pairs.py",
        "parent_git_sha": git("rev-parse", args.base),
        "change_git_sha": git("rev-parse", "HEAD")
        + (" plus uncommitted changes" if dirty else ""),
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                   f"{args.seconds} --trace 0; the parent ran from a git archive of "
                   "its commit, the change from a copy of the working tree; pair i "
                   "ran the parent first for even i (0-based), the change first "
                   "for odd i",
        "host": f"{os.cpu_count()} CPUs; perfbench time metrics are scaled by "
                "its speed probe",
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "glibc": "-".join(platform.libc_ver()),
                "blas_threads": "1 (perfbench sets the six thread variables)",
                "platform": platform.platform()},
        "series": series,
        # every run of one side reads the same copied tree
        "source_sha256": {s: pairs[-1][s]["source_sha256"] for s in SIDES},
        "digests": {w: digest_record([p for ps in runs for p in ps])
                    for w, runs in by_workload.items()},
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
