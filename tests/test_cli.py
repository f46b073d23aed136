import ctypes
import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hs2sphere.cli as cli
from hs2sphere.cli import RunConfig, build_config, main, make_parser
from hs2sphere.errors import (
    BeyondBlowupError,
    ConfigError,
    HS2Error,
    NotMonotoneError,
)
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.geodesics import (
    BLOWUP_MARGIN,
    InitialData,
    blowup_time,
    exact_geodesic,
    exact_solution,
    log_map,
    speed,
)
from hs2sphere.group import GroupElement, inverse, multiply
from hs2sphere.presets import make_preset
from hs2sphere.serialize import json_dump
from hs2sphere.verification import FLIPPABLE, run_suite
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


def test_solve_shorter_than_one_step(tmp_path):
    # a t_end far below dt takes one step of length t_end
    argv = ["solve", "--preset", "smooth-global", "--t-end", "1e-20"]
    assert main([*argv, "--outdir", str(tmp_path)]) == 0
    comparison = json.loads((tmp_path / "comparison.json").read_text())
    assert comparison["t"] == [0.0, 1e-20] and comparison["max_rel_l2_u"] < 1e-12


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


def test_solve_refuses_exactly_where_the_exact_solution_does(
    tmp_path, capsys, monkeypatch
):
    # at T - BLOWUP_MARGIN and at its float neighbours, solve's pre-check and
    # exact_solution draw the same line
    class Integrated(Exception):
        pass

    def integrate(*args):
        raise Integrated

    monkeypatch.setattr(cli, "integrate", integrate)
    data = make_preset("hs-blowup", PeriodicGrid(256))
    rep = blowup_time(data)
    edge = rep.T - BLOWUP_MARGIN
    refused = []
    for t in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
        try:
            exact_solution(data, float(t))
            beyond = False
        except BeyondBlowupError:
            beyond = True
        except NotMonotoneError:
            # phi_x is at roundoff this close to T: evaluated, not refused
            beyond = False
        argv = ["solve", "--preset", "hs-blowup", "--t-end", repr(float(t)),
                "--outdir", str(tmp_path)]
        if beyond:
            assert main(argv) == 3
            assert json.loads(capsys.readouterr().out) == rep.to_json_obj()
        else:
            with pytest.raises(Integrated):
                main(argv)
        refused.append(beyond)
    assert refused == [False, True, True]


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


def test_coefficient_list_may_start_with_minus(tmp_path):
    reports = []
    for i, spelling in enumerate((["--u0x-cos", "-0.3,0.1"], ["--u0x-cos=-0.3,0.1"])):
        out = tmp_path / str(i)
        argv = ["blowup", *spelling, "--rho0-mean", "1.0", "--outdir", str(out)]
        assert main(argv) == 0
        reports.append((out / "blowup.json").read_bytes())
    assert reports[0] == reports[1]
    # so may a number in exponent form, which argparse alone reads as a flag
    reports = []
    for i, spelling in enumerate((["--rho0-mean", "-1e-3"], ["--rho0-mean=-1e-3"])):
        out = tmp_path / f"exp{i}"
        argv = ["blowup", "--u0x-sin", "1", *spelling, "--outdir", str(out)]
        assert main(argv) == 0
        reports.append((out / "blowup.json").read_bytes())
    assert reports[0] == reports[1]
    # a flag in the value position is still a missing value
    with pytest.raises(SystemExit) as exc_info:
        main(["blowup", "--u0x-cos", "--rho0-mean", "1.0"])
    assert exc_info.value.code == 2


def test_flags_are_not_abbreviated(tmp_path):
    data = ["blowup", "--rho0-mean", "1.0", "--outdir", str(tmp_path)]
    run = ["solve", "--preset", "stationary", "--t-end", "0.01", "--dt", "0.005"]
    run += ["--outdir", str(tmp_path)]
    for argv in ([*data, "--u0x-c=-0.3,0.1"], [*run, "--rec", "5"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
    assert main([*data, "--u0x-cos=-0.3,0.1"]) == 0
    assert main([*run, "--record-every", "5"]) == 0


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
        ["solve", "--preset", "stationary", "--dt", "1e-310", "--t-end", "1e10"],
        ["verify", "--samples", "0"],
        ["verify", "--seed", "-1"],
        ["verify", "--n", "abc"],
        ["blowup", "--preset", "hs-blowup", "--n", "1000000000000"],
        ["solve", "--preset", "stationary", "--dealias", "maybe"],
    ],
    ids=" ".join,
)
def test_bad_values_are_config_errors(tmp_path, capsys, argv):
    assert main([*argv, "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--preset", "stationary", "--t-end", "0.01", "--dt", "0.005"],
        ["blowup", "--preset", "hs-blowup"],
        ["verify", "--samples", "1"],
        ["logmap", "--target", "element.json"],
        ["connect", "--a", "element.json", "--b", "element.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_directory_that_cannot_be_made_is_config_error(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main([*argv, "--outdir", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot create output directory")


# one valid and one invalid raw value per setting; any string is a valid
# outdir here, since the command only fails when it creates the directory
SETTING_VALUES = {
    "n": ("64", "abc"),
    "preset": ("stationary", "bogus"),
    "u0x_cos": ("-0.3,0.1", "0.1,x"),
    "u0x_sin": ("1", "1,,2"),
    "rho0_mean": ("-1e-3", "abc"),
    "rho0_cos": ("0.5", "1;2"),
    "rho0_sin": ("-0.2,0", "x"),
    "t_end": ("0.5", "-1"),
    "dt": ("1e-3", "nan"),
    "dealias": ("true", "maybe"),
    "record_every": ("5", "1.5"),
    "outdir": ("out", None),
    "seed": ("7", "-1"),
    "samples": ("3", "0"),
}


@pytest.mark.parametrize("key", list(SETTING_VALUES))
def test_flag_and_config_file_agree_on_every_setting(tmp_path, key):
    assert set(SETTING_VALUES) == {f.name for f in fields(RunConfig)}
    command = "verify" if key in ("seed", "samples") else "solve"
    cfg_file = tmp_path / "run.cfg"

    def from_flag(raw):
        flag = "--" + key.replace("_", "-")
        return build_config(make_parser().parse_args([command, f"{flag}={raw}"]))

    def from_file(raw):
        cfg_file.write_text(f"{key} = {raw}\n")
        return build_config(make_parser().parse_args([command, "--config", str(cfg_file)]))

    valid, invalid = SETTING_VALUES[key]
    assert from_flag(valid) == from_file(valid) != RunConfig()
    if invalid is not None:
        messages = []
        for source in (from_flag, from_file):
            with pytest.raises(ConfigError) as exc_info:
                source(invalid)
            messages.append(str(exc_info.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize(
    "argv",
    [["logmap", "--target", "t.json"], ["connect", "--a", "a.json", "--b", "b.json"]],
    ids=lambda argv: argv[0],
)
def test_logmap_and_connect_take_no_grid_size(argv):
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, "--n", "64"])
    assert exc_info.value.code == 2


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


def test_small_n_verify_failure_names_the_truncation_floor(tmp_path, capsys):
    # below n = 64 the default fields are truncated: the run says so on
    # stderr, and its stdout, exit code and report are those of the suite
    argv = ["verify", "--n", "32", "--samples", "3", "--outdir", str(tmp_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "FAIL group_axioms" in out and "n >= 64" not in out
    assert err.count("\n") == 1 and "truncation floor n >= 64" in err
    json_dump(run_suite(n=32, samples=3, seed=0), tmp_path / "suite.json")
    assert (tmp_path / "verify_report.json").read_bytes() == (
        tmp_path / "suite.json"
    ).read_bytes()


def test_verify_at_the_floor_passes_without_the_note(tmp_path, capsys):
    argv = ["verify", "--n", "64", "--samples", "2", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and "truncation" not in out


@pytest.mark.parametrize("name", FLIPPABLE)
def test_verify_sign_injection_fails_exactly_one(tmp_path, name):
    code = main(
        [
            "verify",
            "--samples",
            "2",
            "--seed",
            "3",
            "--inject-sign-error",
            name,
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    failed = [r["identity"] for r in report["results"] if not r["pass"]]
    assert failed == [name]


def _cli_env() -> dict:
    """The environment for a CLI subprocess that imports this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def test_parser_is_shared_and_keeps_no_state(tmp_path):
    assert make_parser() is make_parser()
    verify = ["verify", "--samples", "2", "--seed", "4"]
    injected = [*verify, "--inject-sign-error", "j_squared"]
    assert main([*injected, "--outdir", str(tmp_path / "injected")]) == 1
    assert main(["blowup", "--preset", "hs-blowup", "--outdir", str(tmp_path)]) == 10
    assert main([*verify, "--outdir", str(tmp_path / "shared")]) == 0
    fresh = subprocess.run(
        [sys.executable, "-m", "hs2sphere.cli", *verify, "--outdir", str(tmp_path / "fresh")],
        env=_cli_env(), capture_output=True, text=True, timeout=300,
    )
    assert fresh.returncode == 0, fresh.stderr
    report = "verify_report.json"
    assert (tmp_path / "shared" / report).read_bytes() == (
        tmp_path / "fresh" / report
    ).read_bytes()


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


@pytest.mark.parametrize(
    "rho0, t, kind",
    [
        # rho0 > 0: alpha / 2 stays off 0 mod 2 pi, a 2 pi family
        (lambda x: 1.0 + 0.3 * np.cos(2 * np.pi * x), 1.0, "periodic_family"),
        # rho0 has zeros, where alpha = 0 before blow-up: one short geodesic
        (lambda x: np.cos(2 * np.pi * x), 0.2, "unique_short"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_connect_reports_the_geodesic(tmp_path, rho0, t, kind):
    grid = PeriodicGrid(64)
    d = InitialData.from_u0x(grid, lambda x: 0.4 * np.sin(2 * np.pi * x), rho0)
    b = exact_geodesic(InitialData.from_u0x(
        grid, lambda x: 0.2 * np.cos(2 * np.pi * x), lambda x: np.full_like(x, 0.1)
    ), 0.5)
    a = multiply(exact_geodesic(d, t), b)
    files = []
    for name, element in (("a", a), ("b", b)):
        files += [f"--{name}", str(tmp_path / f"{name}.json")]
        json_dump(element.to_json_obj(), tmp_path / f"{name}.json")
    assert main(["connect", *files, "--outdir", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "connect.json").read_text())
    a, b = (GroupElement.from_json_obj(json.loads(f.read_text()))
            for f in (tmp_path / "a.json", tmp_path / "b.json"))
    log = log_map(multiply(a, inverse(b)))
    assert res["kind"] == kind
    assert res["r0"] == log.r0 and res["period"] == log.period
    assert log.r0 == pytest.approx(speed(d) * t, rel=1e-8)


def test_connect_across_grid_sizes_is_config_error(tmp_path, capsys):
    files = []
    for n in (8, 16):
        files.append(tmp_path / f"e{n}.json")
        json_dump(GroupElement.identity(PeriodicGrid(n)).to_json_obj(), files[-1])
    argv = ["connect", "--a", str(files[0]), "--b", str(files[1])]
    assert main([*argv, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "n = 8" in err and "n = 16" in err


def test_logmap_identity_errors(tmp_path):
    grid = PeriodicGrid(64)
    ident = GroupElement.identity(grid)
    f = tmp_path / "ident.json"
    json_dump(ident.to_json_obj(), f)
    assert main(["logmap", "--target", str(f), "--outdir", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", ["solve", "blowup"])
def test_non_finite_energy_is_a_library_error(tmp_path, capsys, command):
    argv = [command, "--n", "64", "--rho0-mean=1e160", "--u0x-sin=1"]
    assert main([*argv, "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: initial energy") and "not finite" in err
    assert list(tmp_path.iterdir()) == []


def _element_json(**entries) -> str:
    """An element file at n = 8: phi = x, alpha = 0.5, with ``entries``."""
    obj = {"n": 8, "phi": [k / 8 for k in range(8)], "alpha": [0.5] * 8, "winding": 0}
    return json.dumps({**obj, **entries})


@pytest.mark.parametrize(
    "content",
    [
        "[1, 2]",
        '{"n": null, "phi": [], "alpha": [], "winding": 0}',
        '{"n": 1000000000000, "phi": [], "alpha": [], "winding": 0}',
        # two elements in one file: a stack, which log_map cannot take
        json.dumps({"n": 8, "phi": [[k / 8 for k in range(8)]] * 2,
                    "alpha": [[0.0] * 8] * 2, "winding": 0}),
        # a winding past C long, NaN in phi, an infinite alpha, and n or a
        # winding that are not integers
        _element_json(winding=10**30),
        _element_json(phi=[0.0, math.nan, *[k / 8 for k in range(2, 8)]]),
        _element_json(alpha=[0.5, math.inf, *[0.5] * 6]),
        _element_json(alpha=[0.5, -math.inf, *[0.5] * 6]),
        _element_json(n=8.5),
        _element_json(n=math.inf),
        _element_json(winding=1.5),
    ],
)
def test_malformed_element_file_is_config_error(tmp_path, capsys, content):
    f = tmp_path / "target.json"
    f.write_text(content)
    assert main(["logmap", "--target", str(f), "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(f) in err


@pytest.mark.parametrize("alpha3, code", [
    (1e308, 2), (2.0**26, 2), (-(2.0**26), 2),
    # the largest float below 2**26 still holds alpha mod 4 pi to 1e-8
    (math.nextafter(2.0**26, 0.0), 0),
])
def test_alpha_too_large_for_its_phase_is_config_error(
    tmp_path, capsys, alpha3, code
):
    # past 2**26 float spacing exceeds log_map's 1e-8 phase tolerance: the
    # identity with alpha[3] = 1e308 once read as an ordinary element
    f = tmp_path / "target.json"
    f.write_text(_element_json(alpha=[0.0, 0.0, 0.0, alpha3, 0.0, 0.0, 0.0, 0.0]))
    assert main(["logmap", "--target", str(f), "--outdir", str(tmp_path)]) == code
    if code:
        assert capsys.readouterr().err == (
            f"configuration error: cannot load group element from {str(f)!r}: "
            "alpha must be finite, with |alpha| < 2**26\n"
        )


def test_huge_data_prints_only_its_error(tmp_path):
    # numpy's overflow and invalid-value warnings once reached stderr ahead
    # of the error line: from the Fourier sums and transforms of the
    # coefficients, and from the spectral slope of a huge phi sample
    huge = tmp_path / "huge.json"
    huge.write_text(_element_json(phi=[0.0, 0.125, 0.25, 1e308, 0.5, 0.625, 0.75, 0.875]))
    cases = [
        (["blowup", "--n", "8", "--rho0-mean", "1e308", "--u0x-sin", "1e308"], 1,
         "error: initial energy nan is not finite\n"),
        (["logmap", "--target", str(huge)], 2,
         f"configuration error: cannot load group element from {str(huge)!r}: "
         "phi must lie in [0, 1)\n"),
    ]
    for argv, code, err in cases:
        run = subprocess.run(
            [sys.executable, "-m", "hs2sphere.cli", *argv, "--outdir", str(tmp_path)],
            env=_cli_env(), capture_output=True, text=True, timeout=300,
        )
        assert (run.returncode, run.stderr) == (code, err)


@pytest.mark.parametrize(
    "argv, name, top",
    [
        # cos 16 pi x is 1 at 8 nodes: this rho0 read as 1.5, global
        (["blowup", "--rho0-mean", "0.5", "--rho0-cos", "0,0,0,0,0,0,0,1"], "rho0_cos", 4),
        # u0x's cosine of mode 4 = n/2: the antiderivative would drop it
        (["blowup", "--rho0-mean", "1", "--u0x-cos", "0,0,0,1"], "u0x_cos", 3),
        # the sine of mode n/2 vanishes at the nodes
        (["blowup", "--rho0-mean", "1", "--u0x-sin", "0,0,0,1"], "u0x_sin", 3),
        (["blowup", "--rho0-mean", "1", "--rho0-sin", "0,0,0,1"], "rho0_sin", 3),
        (["solve", "--rho0-mean", "1", "--u0x-cos", "0,0,0,0,0,0,0,1", "--t-end", "0.1"],
         "u0x_cos", 3),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_modes_past_the_grid_are_config_errors(tmp_path, capsys, argv, name, top):
    assert main([*argv, "--n", "8", "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert name in err and "n = 8" in err and f"up to {top}" in err
    assert list(tmp_path.iterdir()) == []


def test_modes_the_grid_carries_are_accepted(tmp_path):
    # rho0's cosine of mode n/2 is the grid's Nyquist mode, (-1)^j at node j
    argv = ["blowup", "--n", "8", "--rho0-mean", "0.5", "--rho0-cos", "0,0,0,1",
            "--u0x-cos", "0,0,1", "--u0x-sin", "0,0,1", "--rho0-sin", "0,0,1"]
    assert main([*argv, "--outdir", str(tmp_path)]) == 10


def test_grid_size_bound_is_inclusive_and_documented(tmp_path):
    argv = ["blowup", "--preset", "hs-blowup", "--outdir", str(tmp_path)]
    assert build_config(make_parser().parse_args([*argv, "--n", str(cli.MAX_N)])).n == cli.MAX_N
    with pytest.raises(ConfigError, match=f"<= {cli.MAX_N}"):
        build_config(make_parser().parse_args([*argv, "--n", str(cli.MAX_N + 2)]))
    assert str(cli.MAX_N) in cli._FIELDS["n"].metadata["help"]


def _has_mallopt() -> bool:
    try:
        return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# The second of two runs in one process; where glibc's thresholds move
# with the frees, a warm run took about 2,300 minor page faults.
WARM_VERIFY_FAULTS = """
import resource, sys
from hs2sphere.cli import main
argv = ["verify", "--n", "256", "--samples", "10", "--outdir", sys.argv[1]]
main(argv)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
main(argv)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_warm_verify_reuses_freed_memory(tmp_path):
    run = subprocess.run(
        [sys.executable, "-c", WARM_VERIFY_FAULTS, str(tmp_path)],
        env=_cli_env(), capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.split()[-1]) <= 250


def test_report_determinism_across_processes(tmp_path):
    # run_suite drives the CLI report; equal dicts => equal bytes via the
    # deterministic serializer
    r1 = run_suite(n=64, samples=2, seed=5)
    r2 = run_suite(n=64, samples=2, seed=5)
    assert json_dumps(r1) == json_dumps(r2)
