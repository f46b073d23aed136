"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 15 --trace 0

Run from the repository root or anywhere else; the library is imported
from ``src/`` next to this directory.  The run times ``import
hs2sphere.cli`` in fresh interpreters, starts worker.py in a fresh
interpreter for the jobs, checks every job's outputs and the determinism
record, prints one report line per job and per metric, and prints as its
last line a JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics.  Everything it writes goes under ``.bench_work/``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("solve", "verify", "exact-large")
TIME_LIMIT_S = 170.0
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Times the import under the speed probe; prints wall and scaled seconds.
TIME_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import speedprobe; "
    "p = speedprobe.SpeedProbe(); p.start(); t = time.perf_counter(); "
    "import hs2sphere.cli; d = time.perf_counter() - t; p.stop(); "
    "print(d, p.scaled(d))"
)
L3_SIZE_FILE = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")

UNITS = {"setup_s": "s", "job_p50_s": "s", "jobs_per_s": "1/s",
         "peak_rss_mib": "MiB"}


class Run:
    """One invocation: deadline and child-process environment."""

    def __init__(self):
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in THREAD_VARS})
        self.env["PYTHONPATH"] = str(SRC)

    def python(self, *args: str, **kwargs) -> subprocess.CompletedProcess:
        """Run a fresh interpreter; raises on failure or past the deadline."""
        kwargs.setdefault("stdout", subprocess.PIPE)
        kwargs.setdefault("stderr", subprocess.PIPE)
        return subprocess.run(
            [sys.executable, *args], env=self.env, cwd=ROOT, text=True,
            check=True, timeout=max(1.0, self.deadline - time.monotonic()),
            **kwargs)


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s_per_sample"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_frac"):
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def time_setup(run: Run) -> list[list[float]]:
    """[wall s, scaled s] of the import in SETUP_RUNS fresh interpreters."""
    run.python("-c", TIME_IMPORT, str(HERE))  # untimed: writes the bytecode caches
    return [[float(v) for v in run.python("-c", TIME_IMPORT, str(HERE)).stdout.split()]
            for _ in range(SETUP_RUNS)]


def parse_importtime(text: str) -> tuple[float, float]:
    """(scipy cumulative s, hs2sphere self s) from ``-X importtime`` output.

    Lines come children first; each scipy module whose parent is not a
    scipy module contributes its cumulative time.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line.split(":", 1)[1].split("|", 2)
        depth = len(name) - len(name.lstrip())
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))
    scipy_us = hs2_us = 0
    stack: list[tuple[int, str]] = []
    for depth, name, self_us, cum_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cum_us
        if name.split(".")[0] == "hs2sphere":
            hs2_us += self_us
        stack.append((depth, name))
    return scipy_us / 1e6, hs2_us / 1e6


def import_layers(run: Run) -> dict:
    samples = [parse_importtime(run.python("-X", "importtime", "-c",
                                           "import hs2sphere.cli").stderr)
               for _ in range(IMPORTTIME_RUNS)]
    return {
        "import.scipy_s": statistics.median(s[0] for s in samples),
        "import.hs2sphere_s": statistics.median(s[1] for s in samples),
    }


def source_digest() -> str:
    """sha256 of the library's sources and of the input generator."""
    h = hashlib.sha256()
    for path in [*sorted((SRC / "hs2sphere").rglob("*.py")), HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(worker_env: dict) -> dict:
    try:
        l3 = L3_SIZE_FILE.read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        **worker_env,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {name: "1" for name in THREAD_VARS},
        "l3": l3,
    }


def check_record(workload: str, src_digest: str, recs: list[dict]) -> list[str]:
    """Compare digests and counts with earlier runs of the same job inputs.

    The record lives in .bench_work/records, one file per workload and
    source digest; a job key names its inputs (the warm-up's are fixed).
    """
    path = WORK / "records" / f"{workload}-{src_digest[:16]}.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    mismatches = []
    for rec in recs:
        if not rec["ok"]:
            continue
        entry = store.setdefault(rec["key"], {})
        fields = {"digest": rec["digest"]}
        if "layers" in rec:
            fields["counts"] = rec["layers"]["counts"]
        for field, value in fields.items():
            if field not in entry:
                entry[field] = value
            elif entry[field] != value:
                mismatches.append(f"job {rec['key']}: {field} differs from an earlier run")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return mismatches


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "hs2sphere" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'hs2sphere'}", file=sys.stderr)
        return 2

    run = Run()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{tag}.worker.json"
    try:
        setup = None if args.trace else time_setup(run)
        layers = import_layers(run) if args.trace else {}
        run.python(str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out),
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: {exc}\n{exc.stderr or ''}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    worker = json.loads(out.read_text())
    out.unlink()
    env = environment(worker["env"])

    jobs = worker["jobs"]
    halves = [j["traced"] for j in jobs] if args.trace else []
    failed = sum(1 for j in jobs if not j["ok"] or (args.trace and not j["traced"]["ok"]))
    mismatches = check_record(args.workload, env["source_sha256"],
                              [worker["warmup"], *(halves or jobs)])
    correct = failed == 0 and worker["warmup"]["ok"] and not mismatches

    if args.trace:
        layers.update(worker["layers"])
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(layers.items())}
        unscaled = {}
    else:
        values = {
            "setup_s": statistics.median(smp[1] for smp in setup),
            "job_p50_s": statistics.median(j["scaled_s"] for j in jobs),
            "jobs_per_s": sum(j["ok"] for j in jobs) / sum(j["scaled_s"] for j in jobs),
            "peak_rss_mib": worker["peak_rss_mib"],
        }
        unscaled = {
            "setup_wall_s": statistics.median(smp[0] for smp in setup),
            "job_p50_wall_s": statistics.median(j["wall_s"] for j in jobs),
            "jobs_per_wall_s": sum(j["ok"] for j in jobs) / worker["elapsed_s"],
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    details = WORK / "results" / f"{tag}.json"
    details.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples_s": setup,
        "error_rate": failed / len(jobs), "determinism_mismatches": mismatches,
        "metrics": metrics, "unscaled": unscaled, "worker": worker,
    }, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " threads=" + ",".join(f"{k}={v}" for k, v in env["threads"].items()))
    for rec in [worker["warmup"], *jobs]:
        for r in ([rec, rec["traced"]] if "traced" in rec else [rec]):
            traced = " traced" if "layers" in r else ""
            status = f"ok sha256={r['digest']}" if r["ok"] else f"FAILED {r['error']}"
            scaled = f" scaled {r['scaled_s']:.4f} s" if "scaled_s" in r else ""
            print(f"job {r['key']}{traced} {r['kind']} {r['wall_s']:.4f} s{scaled} {status}")
    for line in mismatches:
        print(f"determinism: {line}")
    print(f"error_rate {failed / len(jobs):.6g} ratio ({failed} failed of {len(jobs)})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in unscaled.items():
        print(f"unscaled {name} {value:.6g}")
    print(f"details {details.relative_to(ROOT)}")
    print(json.dumps({"correct": bool(correct), "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
