import numpy as np
import pytest

from hs2sphere.funcspace import PeriodicGrid
from hs2sphere.randfields import band_limited

from oracles import dense_band_limited


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("eighth", [False, True])
def test_band_limited_matches_dense_formula(n, eighth):
    max_mode = n // 8 if eighth else None
    modes = n // 8 if eighth else n // 4 - 1
    fast_rng, dense_rng = np.random.default_rng(7), np.random.default_rng(7)
    f = band_limited(PeriodicGrid(n), fast_rng, max_mode=max_mode, amplitude=0.8)
    ref = dense_band_limited(n, dense_rng, modes, amplitude=0.8)
    assert np.max(np.abs(f.values - ref)) < 1e-14
    # same draws from the generator, in the same order
    assert fast_rng.normal() == dense_rng.normal()


def test_band_limited_rejects_modes_from_nyquist_up():
    with pytest.raises(ValueError):
        band_limited(PeriodicGrid(16), np.random.default_rng(0), max_mode=8)
