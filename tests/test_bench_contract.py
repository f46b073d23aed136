"""The benchmark tracer (perfbench/tracer.py) rebinds library names from
outside, and the benchmark's jobs (perfbench/workloads.py) call the library
and check its outputs; these tests fail when a refactor removes or reshapes
a name either reads, which would otherwise only surface in
``perfbench/run.py``.
"""

from pathlib import Path

import pytest

from hs2sphere import cli, funcspace, geodesics, integrator, verification

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict:
    out = {
        "funcspace.brentq": funcspace.brentq,
        "funcspace.invert_diffeo": funcspace.invert_diffeo,
        "geodesics.brentq": geodesics.brentq,
        "geodesics.minimize_scalar": geodesics.minimize_scalar,
        "geodesics.blowup_time": geodesics.blowup_time,
        "cli.exact_solution": cli.exact_solution,
        "cli._write_exact_trajectory": cli._write_exact_trajectory,
        "cli.json_dump": cli.json_dump,
        "Trajectory.to_csv": integrator.Trajectory.to_csv,
    }
    for name, entry in verification.IDENTITIES.items():
        out[f"verification.IDENTITIES[{name}]"] = entry
    return out


def test_tracer_rebinds_and_restores_library_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    before = _bindings()
    t = tracer.Tracer()
    try:
        t.install()
        during = _bindings()
        assert [k for k in before if during[k] is before[k]] == []
        report = verification.run_suite(n=64, samples=3)
    finally:
        t.uninstall()
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []

    # run_suite reads IDENTITIES at call time and calls each entry once per
    # block of samples, so the tracer sees one span per identity and block;
    # three samples make one block.
    calls = t.job_summary()[None]["calls"]
    names = [r["identity"] for r in report["results"]]
    assert names == list(verification.IDENTITIES)
    assert all(calls[f"verification.{name}"] == 1 for name in names)


@pytest.mark.parametrize("workload, index, kind", [
    ("solve", 0, "global"),
    ("verify", 0, None),
    ("exact-large", 0, "global"),
    ("exact-large", 1, "finite"),
])
def test_benchmark_jobs_pass_their_own_checks(workload, index, kind, tmp_path,
                                              monkeypatch):
    # the benchmark's jobs read the library by name (label, T_physical,
    # global_existence, the CLI's reports); a change that breaks one fails
    # here, through the job's own output check
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    job = workloads.make_job(workload, 1, index, tmp_path)
    if kind is not None:
        assert job.kind == kind
    assert len(job.check(job.call())) == 64
