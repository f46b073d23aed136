"""Smoke test of ``tools/layer_sweep.py`` at n = 64: its keys, not its timings."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "layer_sweep.py"
_spec = importlib.util.spec_from_file_location("layer_sweep", _PATH)
layer_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_sweep)

LAYERS = {
    "arithmetic", "derivative", "compose", "multiply", "inverse",
    "kahler_J", "christoffel", "draw_inputs", "translate",
    "exact_solution", "exact_solution_stack", "blowup_time", "rhs", "run_suite_block",
    "interpolant", "rk4_step", "rk4_step_dealiased", "rho_roots",
}


def test_sweep_reports_every_layer_at_every_n(capsys, monkeypatch):
    # the allocator setting would outlive the test in this process
    monkeypatch.setattr(layer_sweep, "_keep_freed_memory", lambda: None)
    assert layer_sweep.main(["--n", "64", "--repeat", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == [64] and out["repeat"] == 1
    assert set(out["env"]) == {"python", "numpy", "platform"}
    assert set(out["layers"]) == LAYERS
    for layer in out["layers"].values():
        assert set(layer) == {"64"}
        assert set(layer["64"]) == {"best_s", "peak_kib"}
        assert layer["64"]["best_s"] > 0.0 and layer["64"]["peak_kib"] > 0.0
