import math
import tracemalloc

import numpy as np
import pytest

import hs2sphere.geometry as gm
import hs2sphere.randfields as rf
from hs2sphere.funcspace import PeriodicGrid
from hs2sphere.verification import BLOCK, FLIPPABLE, IDENTITIES, run_suite


def test_nan_sample_fails_its_identity(monkeypatch):
    original = gm.sectional_curvature
    calls = []

    def nan_in_row_one_of_first_call(u, v):
        calls.append(None)
        sec = original(u, v)
        if len(calls) == 1:
            sec = np.array(sec)
            sec[1] = math.nan
        return sec

    monkeypatch.setattr(gm, "sectional_curvature", nan_in_row_one_of_first_call)
    report = run_suite(n=64, samples=3)
    results = {r["identity"]: r for r in report["results"]}
    pinching = results["sectional_pinching"]
    assert math.isnan(pinching["max_residual"])
    assert not pinching["pass"]
    assert not report["all_pass"]
    assert results["sectional_J_plane_is_four"]["pass"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_fields_pass_from_n_64(seed):
    # below n = 64 group_axioms fails by truncation (5.1e-8 at n = 32)
    assert run_suite(n=64, samples=3, seed=seed)["all_pass"]


@pytest.mark.parametrize("n, samples", [(64, 4), (256, 2)])
@pytest.mark.parametrize("flip", [None, *FLIPPABLE])
def test_stack_equals_one_sample_calls(n, samples, flip, monkeypatch):
    # row s of a block's residual equals the residual of a stack of one
    # built from row s of the same draws: no row reads another row
    grid = PeriodicGrid(n)
    for name, (_, residual_of) in IDENTITIES.items():
        if flip is not None and name != flip:
            continue
        stacked = residual_of(grid, np.random.default_rng(5), name == flip, samples)
        assert stacked.shape == (samples,)
        for s in range(samples):
            with monkeypatch.context() as m:
                m.setattr(rf, "_SAMPLERS", _row_samplers(s, samples))
                alone = residual_of(grid, np.random.default_rng(5), name == flip, 1)
            assert alone.shape == (1,)
            assert np.array_equal(stacked[s : s + 1], alone, equal_nan=True), name


def _row_samplers(s, samples):
    """Samplers that draw a block of ``samples`` and build only its row s."""

    def row_of(draw):
        def draw_row(grid, rng, shape):
            return [part[s : s + 1] for part in draw(grid, rng, (samples,))]

        return draw_row

    return {k: (row_of(draw), build) for k, (draw, build) in rf._SAMPLERS.items()}


def _peak_bytes(samples: int) -> int:
    tracemalloc.start()
    try:
        run_suite(n=256, samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_suite_memory_is_bounded_in_samples():
    assert BLOCK >= 10
    one_block = _peak_bytes(BLOCK)
    assert _peak_bytes(4 * BLOCK) <= 1.1 * one_block
