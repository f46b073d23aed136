import json

import numpy as np
import pytest

from hs2sphere.cli import main
from hs2sphere.errors import ConfigError, HS2Error
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.geodesics import InitialData, exact_geodesic
from hs2sphere.group import GroupElement, multiply
from hs2sphere.serialize import json_dump
from hs2sphere.verification import run_suite
from hs2sphere.serialize import json_dumps


def test_solve_stationary(tmp_path, capsys):
    code = main(
        [
            "solve",
            "--preset",
            "stationary",
            "--t-end",
            "0.2",
            "--dt",
            "0.002",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    comparison = json.loads((tmp_path / "comparison.json").read_text())
    assert comparison["max_rel_l2_u"] < 1e-12
    assert comparison["max_rel_l2_rho"] < 1e-12
    assert (tmp_path / "integrator_trajectory.csv").exists()
    assert (tmp_path / "exact_trajectory.csv").exists()


def test_solve_smooth_global_cross_validation(tmp_path):
    code = main(
        [
            "solve",
            "--preset",
            "smooth-global",
            "--t-end",
            "1.0",
            "--dt",
            "0.0005",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    comparison = json.loads((tmp_path / "comparison.json").read_text())
    assert comparison["max_rel_l2_u"] < 1e-6
    assert comparison["max_rel_l2_rho"] < 1e-6


def test_solve_with_dealiasing_on(tmp_path):
    code = main(
        [
            "solve",
            "--preset",
            "smooth-global",
            "--t-end",
            "0.2",
            "--dt",
            "0.001",
            "--dealias",
            "on",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    comparison = json.loads((tmp_path / "comparison.json").read_text())
    assert comparison["dealias"] is True
    # the solution is still narrow-band at t = 0.2, so truncation is harmless
    assert comparison["max_rel_l2_rho"] < 1e-9


def test_solve_beyond_blowup_exit_code(tmp_path, capsys):
    code = main(
        [
            "solve",
            "--preset",
            "hs-blowup",
            "--t-end",
            "2.0",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 3
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["finite"] is True
    assert abs(report["T_physical"] - 1.7408395027342) < 1e-9


def test_blowup_exit_codes(tmp_path):
    assert (
        main(["blowup", "--preset", "smooth-global", "--outdir", str(tmp_path)])
        == 0
    )
    code = main(["blowup", "--preset", "hs-blowup", "--outdir", str(tmp_path)])
    assert code == 10
    report = json.loads((tmp_path / "blowup.json").read_text())
    assert report["classification"] == "finite"
    assert report["T_unit_speed"] < np.pi


def test_fourier_series_data_and_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n = 128\n"
        "u0x_sin = 1.0\n"
        "rho0_mean = 1.5\n"
        "rho0_cos = 1.0\n"
        "t_end = 0.25\n"
        "dt = 0.001  # comment here\n"
        f"outdir = {tmp_path}\n"
    )
    code = main(["solve", "--config", str(cfg)])
    assert code == 0
    comparison = json.loads((tmp_path / "comparison.json").read_text())
    assert comparison["n"] == 128
    assert comparison["max_rel_l2_u"] < 1e-6


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert main(["solve", "--config", str(bad)]) == 2
    assert main(["blowup", "--outdir", str(tmp_path)]) == 2  # no data given


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--preset", "stationary", "--n", "7"],
        ["solve", "--preset", "stationary", "--n", "6"],
        ["solve", "--preset", "stationary", "--dt", "0"],
        ["solve", "--preset", "stationary", "--dt", "nan"],
        ["solve", "--preset", "stationary", "--t-end", "-1"],
        ["solve", "--preset", "stationary", "--t-end", "inf"],
        ["solve", "--preset", "stationary", "--record-every", "-1"],
        ["verify", "--samples", "0"],
    ],
    ids=" ".join,
)
def test_bad_values_are_config_errors(tmp_path, capsys, argv):
    assert main([*argv, "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_config_error_is_library_error():
    assert issubclass(ConfigError, HS2Error)
    assert issubclass(ConfigError, ValueError)


def test_verify_cli_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = main(
            [
                "verify",
                "--samples",
                "3",
                "--seed",
                "11",
                "--outdir",
                str(out),
            ]
        )
        assert code == 0
    b1 = (out1 / "verify_report.json").read_bytes()
    b2 = (out2 / "verify_report.json").read_bytes()
    assert b1 == b2


def test_verify_sign_injection_fails_exactly_one(tmp_path):
    code = main(
        [
            "verify",
            "--samples",
            "2",
            "--seed",
            "3",
            "--inject-sign-error",
            "omega_compatibility",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    failed = [r["identity"] for r in report["results"] if not r["pass"]]
    assert failed == ["omega_compatibility"]


def test_logmap_and_connect_cli(tmp_path):
    grid = PeriodicGrid(128)
    d = InitialData.from_u0x(
        grid,
        lambda x: 0.4 * np.sin(2 * np.pi * x),
        lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x),
    )
    target = exact_geodesic(d, 1.0)
    tfile = tmp_path / "target.json"
    json_dump(target.to_json_obj(), tfile)
    code = main(["logmap", "--target", str(tfile), "--outdir", str(tmp_path)])
    assert code == 0
    result = json.loads((tmp_path / "logmap.json").read_text())
    assert result["kind"] == "family"
    from hs2sphere.geodesics import speed

    assert abs(result["r0"] - speed(d)) < 1e-9

    shift = GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction.constant(grid, 2.0 * np.pi),
        0,
    )
    bfile = tmp_path / "b.json"
    json_dump(multiply(target, shift).to_json_obj(), bfile)
    code = main(
        ["connect", "--a", str(tfile), "--b", str(bfile), "--outdir", str(tmp_path)]
    )
    assert code == 0
    res = json.loads((tmp_path / "connect.json").read_text())
    assert res["kind"] == "antipodal_infinite"


def test_logmap_identity_errors(tmp_path):
    grid = PeriodicGrid(64)
    ident = GroupElement.identity(grid)
    f = tmp_path / "ident.json"
    json_dump(ident.to_json_obj(), f)
    assert main(["logmap", "--target", str(f), "--outdir", str(tmp_path)]) == 1


def test_report_determinism_across_processes(tmp_path):
    # run_suite drives the CLI report; equal dicts => equal bytes via the
    # deterministic serializer
    r1 = run_suite(n=64, samples=2, seed=5)
    r2 = run_suite(n=64, samples=2, seed=5)
    assert json_dumps(r1) == json_dumps(r2)
