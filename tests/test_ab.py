"""tools/ab.py as an A/A on two copies of src/, with no git: three packages
load side by side, every side gives the same counts, and the report has
its lines; a copy that counts differently is refused."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab", _ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def copies(tmp_path):
    srcs = {}
    for side in ("parent", "change"):
        srcs[side] = tmp_path / side / "src"
        shutil.copytree(_ROOT / "src" / "hassecount", srcs[side] / "hassecount",
                        ignore=shutil.ignore_patterns("__pycache__"))
    srcs["control"] = srcs["parent"]
    return srcs


def test_ab_on_two_copies_of_the_tree(tmp_path):
    lines = ab.compare(copies(tmp_path), 10**6 + 3, 1, 3, 2)
    assert lines[0] == "q = 1000003, seed 1, 3 curves, 2 rounds"
    for line, side in zip(lines[1:4], ab.SIDES):
        assert line.startswith(side) and line.endswith(" us per count") and float(line.split()[1]) > 0
    for line, label in zip(lines[4:], ("change/parent: median ratio ", "control/parent (A/A): median ratio ")):
        assert line.startswith(label) and line.endswith(" rounds"), line
        assert float(line[len(label):].split(",")[0]) > 0
    assert len(lines) == 6
    packages = {name.split(".")[0] for name in sys.modules if name.startswith("hassecount_ab_")}
    assert packages == {f"hassecount_ab_{side}" for side in ab.SIDES}


def test_ab_refuses_sides_that_count_differently(tmp_path):
    srcs = copies(tmp_path)
    counting = srcs["change"] / "hassecount" / "counting.py"
    text = counting.read_text()
    assert text.count("samples_used=samples,") == 1
    counting.write_text(text.replace("samples_used=samples,", "samples_used=samples + 1,"))
    with pytest.raises(SystemExit, match="different counts"):
        ab.compare(srcs, 10**6 + 3, 1, 3, 2)
