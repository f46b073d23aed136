"""Worker process: one workload's jobs in a closed loop with one client.

run.py starts this file in a fresh interpreter with BLAS/OpenMP threads
pinned to 1.  The worker runs an untimed warm-up job, then job 0, 1, ...
one after another until ``--seconds`` have passed and the jobs make whole
rounds (``workloads.ROUND``), and writes its result as JSON to ``--out``.

With ``--trace 0`` every timed job runs under speedprobe.SpeedProbe, which
gives its ``scaled_s`` next to its ``wall_s``.
With ``--trace 1`` every job runs twice on the same inputs: untraced, then
with the tracer installed.  The two outputs must have the same digest;
the two wall times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import hs2sphere  # noqa: E402

if not Path(hs2sphere.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"imported hs2sphere from {hs2sphere.__file__}, not from {ROOT / 'src'}")

import speedprobe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hs2sphere import verification  # noqa: E402

# Per-job counters that must repeat exactly for the same inputs.
COUNT_KEYS = (
    "funcspace.root_evals", "funcspace.trig_interpolate.points",
    "geodesics.root_solver.calls", "integrator.steps", "cli.bytes_written",
)


def attempt(job: workloads.Job, tracer: tracing.Tracer | None = None,
            probe: bool = False) -> dict:
    """Run job (timed) and check its outputs (untimed)."""
    rec = {"key": job.key, "kind": job.kind, "ok": False}
    speed = speedprobe.SpeedProbe() if probe else None
    if tracer is not None:
        tracer.job = job.key
        tracer.install()
    if speed is not None:
        speed.start()
    start = time.perf_counter()
    try:
        try:
            out = job.call()
        finally:
            rec["wall_s"] = time.perf_counter() - start
            if speed is not None:
                speed.stop()
                rec["scaled_s"] = speed.scaled(rec["wall_s"])
                rec["probe_s"] = speed.probe_s()
                rec["probe_samples"] = len(speed.samples)
            if tracer is not None:
                tracer.uninstall()
        rec["digest"] = job.check(out)
        rec["ok"] = True
    except Exception as exc:  # a failed job is counted, and the loop goes on
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def job_layers(tracer: tracing.Tracer, summary: dict, rec: dict) -> dict:
    """Per-layer metrics of one traced job, and its exact counts."""
    empty = {"calls": {}, "self_s": {}, "total_s": {}, "root_s": 0.0}
    spans = summary.get(rec["key"], empty)
    calls, self_s = spans["calls"], spans["self_s"]
    counts = {k: tracer.counts[rec["key"]][k] for k in COUNT_KEYS}
    for layer in tracing.CALL_COUNT_LAYERS:
        counts[f"{layer}.calls"] = calls.get(layer, 0)
    counts["funcspace.trig_interpolate.dense_bytes"] = (
        tracer.maxima[rec["key"]]["dense_bytes"])
    times = {f"{layer}.self_s": self_s.get(layer, 0.0)
             for layer in tracing.SELF_TIME_LAYERS}
    steps = counts["integrator.steps"]
    times["integrator.step_us"] = (
        1e6 * times["integrator.integrate.self_s"] / steps if steps else 0.0)
    for name in verification.IDENTITIES:
        total = spans["total_s"].get(f"verification.{name}", 0.0)
        times[f"verification.{name}.s_per_sample"] = (
            total / workloads.VERIFY_SAMPLES)
    times["trace.coverage_frac"] = spans["root_s"] / rec["wall_s"]
    return {"counts": counts, "times": times}


def summarize_layers(tracer: tracing.Tracer, jobs: list[dict]) -> dict:
    """Medians over the timed traced jobs; maxima for memory."""
    per_job = [j["traced"]["layers"] for j in jobs]
    out = {}
    for key in per_job[0]["counts"]:
        if key != "funcspace.trig_interpolate.dense_bytes":
            out[key] = statistics.median_low(p["counts"][key] for p in per_job)
    for key in per_job[0]["times"]:
        out[key] = statistics.median(p["times"][key] for p in per_job)
    keys = [j["key"] for j in jobs]
    out["funcspace.trig_interpolate.dense_mib"] = max(
        tracer.maxima[k]["dense_bytes"] for k in keys) / tracing.MIB
    out["funcspace.trig_interpolate.peak_mib"] = max(
        tracer.maxima[k]["peak_bytes"] for k in keys) / tracing.MIB
    out["trace.overhead_frac"] = (
        statistics.median(j["traced"]["wall_s"] for j in jobs)
        / statistics.median(j["wall_s"] for j in jobs) - 1.0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    workdir = ROOT / ".bench_work"
    tracer = tracing.Tracer() if args.trace else None

    warm = workloads.make_job(args.workload, None, 0, workdir)
    warmup = attempt(warm, tracer)

    jobs = []
    rounds = workloads.ROUND[args.workload]
    start = time.perf_counter()
    while (not jobs or len(jobs) % rounds
           or time.perf_counter() - start < args.seconds):
        job = workloads.make_job(args.workload, args.seed, len(jobs), workdir)
        rec = attempt(job, probe=tracer is None)
        if tracer is not None:
            traced = attempt(job, tracer)
            if rec["ok"] and traced["ok"] and traced["digest"] != rec["digest"]:
                traced.update(ok=False, error="traced output differs from untraced")
            rec["traced"] = traced
        jobs.append(rec)
    elapsed = time.perf_counter() - start

    result = {
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "elapsed_s": elapsed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warmup": warmup,
        "jobs": jobs,
    }
    if tracer is not None:
        summary = tracer.job_summary()
        for rec in [warmup] + [j["traced"] for j in jobs]:
            rec["layers"] = job_layers(tracer, summary, rec)
        result["layers"] = summarize_layers(tracer, jobs)
        spans_path = workdir / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
