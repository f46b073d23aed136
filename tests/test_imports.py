"""The runtime needs numpy only: scipy is loaded when a test oracle or the
benchmark tracer asks for it, never by ``import hs2sphere.cli``, and
neither is ``numpy.polynomial``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import hs2sphere.cli
from hs2sphere import funcspace, geodesics
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
polynomial = "numpy.polynomial" in sys.modules
import scipy.optimize as opt
print(json.dumps({
    "before": before,
    "polynomial": polynomial,
    "resolved": [
        geodesics.brentq is opt.brentq,
        geodesics.minimize_scalar is opt.minimize_scalar,
        funcspace.brentq is opt.brentq,
    ],
}))
"""


def test_cli_import_leaves_scipy_out_and_tracer_names_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        check=True,
    )
    result = json.loads(out.stdout)
    assert result["before"] == []
    assert result["polynomial"] is False
    assert result["resolved"] == [True, True, True]


def test_unknown_module_attribute_still_raises():
    from hs2sphere import funcspace, geodesics

    for mod in (funcspace, geodesics):
        with pytest.raises(AttributeError):
            mod.newton
