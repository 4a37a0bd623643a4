"""Each script in demos/ runs in its own interpreter and prints exactly the
stdout recorded in tests/demo_stdout/<name>.txt.

The demos reach into points, curves and BSGS op counts, so a change to those
layers that breaks or alters a demo fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hassecount

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_unchanged(demo):
    src = str(Path(hassecount.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout
    assert out == (EXPECTED / f"{demo.stem}.txt").read_text()
