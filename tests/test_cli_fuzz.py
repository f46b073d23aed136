"""Fuzz ``cli.main`` in process: every run ends in a documented exit code.

The settings commands draw argv from RunConfig's fields, valid values kept
small (n <= 64, samples <= 3, at most 1,000 RK4 steps), next to odd, tiny,
huge and non-integer grid sizes and the floats NaN, +-inf, 1e308 and -0.0.
A valid huge n or sample count is never drawn: it would only allocate.
The element commands draw files: random n, mismatched grids, non-monotone
phi, alpha at +-2 pi or past 2**26, NaN or infinite entries, and odd n or
windings.
An exception that main lets through fails the test, as does a traceback
on either stream.  The draws are derandomized, so the suite stays
reproducible.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hs2sphere.cli import MAX_N, main
from hs2sphere.presets import PRESET_NAMES

# numpy's overflow and invalid-value warnings would reach the CLI's stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXIT_CODES = {0, 1, 2, 3, 10}

ODD_FLOATS = ("nan", "-nan", "inf", "-inf", "1e308", "-1e308", "-0.0", "0", "1e-310")
# never a valid large n: odd, too small, past MAX_N, or not an integer
ODD_N = ("7", "9", "0", "2", "6", "-8", "8.5", "1e3", "abc", "", "nan", "inf",
         str(MAX_N + 1), str(MAX_N + 2), str(2**64), str(-(2**64)))


def _check(argv: list) -> int:
    """main ends in a documented exit code, argparse's included, and
    prints no traceback on either stream; returns the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue() + err.getvalue()
    assert code in EXIT_CODES, (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    return code


def _fuzz(examples: int):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


def _number(valid) -> st.SearchStrategy:
    return st.one_of(valid.map(repr), st.sampled_from(ODD_FLOATS))


def _coefficients(n: int) -> st.SearchStrategy:
    # lists up to two modes past what n carries, odd entries included
    entry = _number(st.floats(-2.0, 2.0))
    return st.lists(entry, max_size=n // 2 + 2).map(",".join)


@st.composite
def setting_argvs(draw):
    """argv for blowup, solve or verify, each setting a flag or a file line."""
    command = draw(st.sampled_from(["blowup", "solve", "verify"]))
    valid_n = draw(st.sampled_from([8, 16, 32, 64]))
    n = draw(st.one_of(st.just(str(valid_n)), st.sampled_from(ODD_N)))
    chosen = {"n": n}
    if command == "verify":
        chosen["seed"] = draw(st.one_of(
            st.integers(0, 2**70).map(str), st.sampled_from(["-1", "1.5", "nan", "x"])
        ))
        chosen["samples"] = draw(st.one_of(
            st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "1.5", "nan"])
        ))
    else:
        if draw(st.booleans()):
            chosen["preset"] = draw(st.sampled_from([*PRESET_NAMES, "bogus"]))
        for key in ("u0x_cos", "u0x_sin", "rho0_cos", "rho0_sin"):
            if draw(st.booleans()):
                chosen[key] = draw(_coefficients(valid_n))
        if draw(st.booleans()):
            chosen["rho0_mean"] = draw(_number(st.floats(-2.0, 2.0)))
    if command == "solve":
        dt = draw(st.sampled_from([1e-3, 5e-3, 1e-2, 0.1]))
        steps = draw(st.integers(1, 1000))
        chosen["dt"] = draw(_number(st.just(dt)))
        chosen["t_end"] = draw(_number(st.just(dt * steps)))
        # at most about 100 recorded states; 0 means about 10
        chosen["record_every"] = draw(st.one_of(
            st.just("0"),
            st.integers(max(1, steps // 100), steps + 5).map(str),
            st.sampled_from(["-1", "1.5", "nan", str(2**64)]),
        ))
        chosen["dealias"] = draw(st.sampled_from(["on", "off", "1", "maybe", ""]))
    in_file = {k for k in chosen if draw(st.booleans())}
    flags = [t for k in chosen if k not in in_file
             for t in (f"--{k.replace('_', '-')}", chosen[k])]
    lines = [f"{k} = {chosen[k]}" for k in in_file]
    return command, flags, lines


@_fuzz(120)
@given(setting_argvs())
def test_settings_commands_end_in_an_exit_code(case):
    command, flags, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *flags, "--outdir", str(Path(tmp) / "out")]
        if lines:
            (Path(tmp) / "run.cfg").write_text("\n".join(lines) + "\n")
            argv += ["--config", str(Path(tmp) / "run.cfg")]
        _check(argv)


ODD_ENTRIES = (math.nan, math.inf, -math.inf, 1e308)
ODD_INTEGERS = (7, 0, -8, 8.5, 1e30, 10**30, "8", None, math.nan, math.inf, MAX_N + 2)
# finite angles too large for alpha mod 4 pi to hold the 1e-8 phase tolerance
HUGE_ALPHA = (2.0**26, -(2.0**26), 1e8, 1e17, -1e17, 1e300)
HOWS = ("none", "entry", "huge-alpha", "n", "winding", "missing", "length", "stack",
        "text")


@st.composite
def element_text(draw, n=None, hows=HOWS):
    """The text of an element file: near-valid, or corrupted one way."""
    n = draw(st.sampled_from([8, 16, 32])) if n is None else n
    x = np.arange(n) / n
    k = draw(st.integers(1, 3))
    # |amp| >= 1 makes phi non-monotone
    amp = draw(st.floats(-1.5, 1.5))
    phi = x + amp * np.sin(2 * np.pi * k * x) / (2 * np.pi * k)
    base = draw(st.sampled_from([0.0, 2 * np.pi, -2 * np.pi, 4 * np.pi]))
    alpha = base + draw(st.floats(-1.0, 1.0)) * np.cos(2 * np.pi * x)
    obj = {"n": n, "phi": phi.tolist(), "alpha": alpha.tolist(),
           "winding": draw(st.integers(-2, 2))}
    how = draw(st.sampled_from(hows))
    if how == "entry":
        key = draw(st.sampled_from(["phi", "alpha"]))
        obj[key][draw(st.integers(0, n - 1))] = draw(st.sampled_from(ODD_ENTRIES))
    elif how == "huge-alpha":
        obj["alpha"][draw(st.integers(0, n - 1))] = draw(st.sampled_from(HUGE_ALPHA))
    elif how in ("n", "winding"):
        obj[how] = draw(st.sampled_from(ODD_INTEGERS))
    elif how == "missing":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif how == "length":
        obj["phi"] = obj["phi"][: n // 2]
    elif how == "stack":
        obj["phi"], obj["alpha"] = [obj["phi"]] * 2, [obj["alpha"]] * 2
    elif how == "text":
        return draw(st.sampled_from(["", "{", "[1, 2]", "null", '"n"', "3"]))
    return json.dumps(obj)


@st.composite
def element_argvs(draw):
    """logmap on one file, or connect on two: the same, on one grid, or not."""
    n = draw(st.sampled_from([8, 16, 32]))
    first = draw(element_text(n))
    if draw(st.booleans()):
        return ["logmap"], {"target": first}
    second = draw(st.one_of(st.just(first), element_text(n), element_text()))
    return ["connect"], {"a": first, "b": second}


@_fuzz(80)
@given(element_argvs())
def test_element_commands_end_in_an_exit_code(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for flag, text in files.items():
            (Path(tmp) / f"{flag}.json").write_text(text)
            argv = [*argv, f"--{flag}", str(Path(tmp) / f"{flag}.json")]
        _check([*argv, "--outdir", str(Path(tmp) / "out")])


@_fuzz(20)
@given(st.sampled_from([8, 16, 32]), st.data())
def test_alpha_past_its_phase_precision_is_refused(n, data):
    # an otherwise valid file with one angle at or past 2**26 is a
    # configuration error, alone or as either end of connect
    huge = data.draw(element_text(n, hows=("huge-alpha",)))
    other = data.draw(element_text(n, hows=("none",)))
    with tempfile.TemporaryDirectory() as tmp:
        files = [Path(tmp) / "huge.json", Path(tmp) / "other.json"]
        for path, text in zip(files, (huge, other)):
            path.write_text(text)
        out = ["--outdir", str(Path(tmp) / "out")]
        assert _check(["logmap", "--target", str(files[0]), *out]) == 2
        for a, b in (files, files[::-1]):
            assert _check(["connect", "--a", str(a), "--b", str(b), *out]) == 2
