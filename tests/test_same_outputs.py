"""The comparison of ``tools/same_outputs.py`` on synthetic run directories;
no command line runs."""

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import same_outputs  # noqa: E402


def _side(root, exit_code="0\n", stdout="ok\n", files=None):
    """One side's runs: a single run ``r`` with its record and outdir."""
    record = root / "r"
    (record / "out").mkdir(parents=True)
    (record / "exit_code").write_text(exit_code)
    (record / "stdout").write_text(stdout)
    (record / "stderr").write_text("")
    for name, data in (files or {"a.json": b"{}\n"}).items():
        (record / "out" / name).write_bytes(data)
    return root


def test_identical_runs_do_not_differ(tmp_path):
    files = {"a.json": b"{}\n", "t.csv": b"0,1\n"}
    parent = _side(tmp_path / "parent", files=files)
    change = _side(tmp_path / "change", files=files)
    assert same_outputs.differing(parent, change) == []


def test_a_changed_byte_differs(tmp_path):
    parent = _side(tmp_path / "parent", files={"t.csv": b"0,0.5\n"})
    change = _side(tmp_path / "change", files={"t.csv": b"0,0.6\n"})
    assert same_outputs.differing(parent, change) == ["r/out/t.csv"]


def test_a_missing_file_differs_on_either_side(tmp_path):
    parent = _side(tmp_path / "parent", files={"a.json": b"{}\n", "b.json": b"[]\n"})
    change = _side(tmp_path / "change", files={"a.json": b"{}\n", "c.json": b"[]\n"})
    assert same_outputs.differing(parent, change) == ["r/out/b.json", "r/out/c.json"]


def test_a_different_exit_code_differs(tmp_path):
    parent = _side(tmp_path / "parent", exit_code="0\n")
    change = _side(tmp_path / "change", exit_code="1\n")
    assert same_outputs.differing(parent, change) == ["r/exit_code"]


def test_the_mask_hides_only_the_outdir(tmp_path):
    outdirs = [tmp_path / side / "r" / "out" for side in ("parent", "change")]
    texts = [same_outputs.mask(f"wrote {d}/a.json\nfrom /data/x.json\n", d)
             for d in outdirs]
    assert texts[0] == texts[1] == "wrote <outdir>/a.json\nfrom /data/x.json\n"
    # the other side's path is not masked, so a leaked path still differs
    assert same_outputs.mask(str(outdirs[1]), outdirs[0]) == str(outdirs[1])
    parent = _side(tmp_path / "p", stdout=texts[0])
    change = _side(tmp_path / "c", stdout=texts[1])
    assert same_outputs.differing(parent, change) == []


def test_every_logmap_and_connect_run_reads_a_written_element(tmp_path):
    names = {f"{name}-n{n}.json" for n in same_outputs.SIZES
             for name in same_outputs.ELEMENTS}
    for _, argv in same_outputs.commands(tmp_path):
        paths = [Path(a) for a in argv if a.endswith(".json")]
        assert argv[0] in ("solve", "blowup", "verify") or paths
        assert all(p.parent == tmp_path and p.name in names for p in paths)
