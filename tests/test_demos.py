"""Each script under demos/, and README's library quick start, runs to
completion against the package in src/; README's command lines parse."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hs2sphere.cli import _join_setting_values, build_config, make_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = _run([str(demo)], tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr


def test_readme_quick_start_runs(tmp_path):
    # each print in the block writes what its trailing comment says
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)[1]
    expected = re.findall(r"^print\(.*#\s*(.*?)\s*$", block, re.M)
    done = _run(["-c", block], tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert expected and done.stdout.splitlines() == expected


def test_readme_command_lines_parse():
    # every `hs2sphere ...` line of README's code blocks parses as `main`
    # parses it, without running the command
    readme = (ROOT / "README.md").read_text()
    lines = [
        line
        for _, block in re.findall(r"^```(\w*)\n(.*?)^```", readme, re.S | re.M)
        for line in block.splitlines()
        if line.startswith("hs2sphere ")
    ]
    assert len(lines) >= 6
    for line in lines:
        argv = _join_setting_values(shlex.split(line)[1:])
        build_config(make_parser().parse_args(argv))
