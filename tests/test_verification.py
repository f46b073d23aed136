import math

import hs2sphere.geometry as gm
from hs2sphere.verification import run_suite


def test_nan_sample_fails_its_identity(monkeypatch):
    original = gm.sectional_curvature
    calls = []

    def nan_on_first_call(u, v):
        calls.append(None)
        return math.nan if len(calls) == 1 else original(u, v)

    monkeypatch.setattr(gm, "sectional_curvature", nan_on_first_call)
    report = run_suite(n=64, samples=3)
    results = {r["identity"]: r for r in report["results"]}
    pinching = results["sectional_pinching"]
    assert math.isnan(pinching["max_residual"])
    assert not pinching["pass"]
    assert not report["all_pass"]
    assert results["sectional_J_plane_is_four"]["pass"]
