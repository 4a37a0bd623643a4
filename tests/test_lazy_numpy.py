"""numpy is loaded only where a sweep kernel needs it.

A fresh interpreter imports the package, the CLI, sweep and selftest, and runs
prime-field, log-table, large char-2, exhaustive, twist, order, group, census
and table1 commands without loading numpy, printing what the same commands
print in this process.  The log/Zech-table builds in odd and even
characteristic, run cold, leave numpy unloaded; the sweep kernels are the
first importer of numpy in a fresh interpreter.  Each cold path's kernels are
checked against the digit-list model.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hassecount
from hassecount import cli

SRC = str(Path(hassecount.__file__).resolve().parent.parent)

NUMPY_FREE_COMMANDS = [
    "count --q 1000000000039 --curve 0,0,0,1,1",
    "count --q 1099511627776 --curve 1,0,0,0,1",
    "twist --q 65521 --curve 0,0,0,1,1",
    "count --q 1009 --curve 0,0,0,1,1 --method exhaustive",
    "order --q 1009 --curve 0,0,0,1,1 --point 864,869",
    "group --q 1009 --curve 0,0,0,1,1",
    "exceptions --qmax 1024",
    "count --q 2187 --curve 0,0,0,1,2",
    "count --q 243 --curve 0,0,0,1,2 --method exhaustive",
    "group --q 729 --curve 0,0,0,1,2",
    "twist --q 4096 --curve 1,0,0,0,1",
    "table1",
]


def _fresh(script: str) -> dict:
    """Runs script in a fresh interpreter with the package on the path and
    returns the JSON of its last stdout line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _cli_stdout(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_counting_process_never_loads_numpy():
    got = _fresh(
        f"""
        import contextlib, io, json, sys
        import hassecount, hassecount.cli, hassecount.sweep, hassecount.selftest
        runs = []
        for line in {NUMPY_FREE_COMMANDS!r}:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = hassecount.cli.main(line.split())
            runs.append([code, buf.getvalue()])
        print(json.dumps({{"numpy": "numpy" in sys.modules, "runs": runs}}))
        """
    )
    assert got["numpy"] is False
    assert got["runs"] == [list(_cli_stdout(line.split())) for line in NUMPY_FREE_COMMANDS]


LOG_BUILDERS = {
    # the odd log/Zech tables, and chi_table's log branch
    "log_odd": """
        spec = spec_for_q(3**7)
        chi = spec.chi_table()
        assert spec._log is not None and chi[0] == 0
        assert all(chi[a] == (1 if spec.pow_enc(a, (spec.q - 1) // 2) == 1 else -1) for a in range(1, spec.q))
        """,
    "log_char2": """
        spec = spec_for_q(2**10)
        assert spec._log is not None
        """,
}

SWEEP_BUILDERS = {
    "sweep": """
        spec = spec_for_q(3)
        rep = sweep.full_sweep_verify(spec)
        assert (rep.curves, rep.singular, rep.api_checked) == (3**5 - 3**4, 3**4, 3**5)
        """,
}


def _cold(builder: str) -> dict:
    """Runs builder in a fresh interpreter, checks the kernels of the spec it
    leaves, and reports whether numpy was loaded before and after."""
    return _fresh(
        """
        import json, random, sys
        from hassecount import sweep
        from hassecount.finite_field import FieldSpec, spec_for_q
        before = "numpy" in sys.modules
        """
        + builder
        + """
        rng = random.Random(spec.q)
        for _ in range(500):
            a, b = rng.randrange(spec.q), rng.randrange(spec.q)
            assert spec.mul_enc(a, b) == FieldSpec.mul_enc(spec, a, b)
            digitwise = [(x + y) % spec.p for x, y in zip(spec.decode(a), spec.decode(b))]
            assert spec.add_enc(a, b) == spec.encode(digitwise)
        print(json.dumps({"before": before, "after": "numpy" in sys.modules}))
        """
    )


@pytest.mark.parametrize("builder", LOG_BUILDERS)
def test_log_builder_never_loads_numpy(builder):
    assert _cold(LOG_BUILDERS[builder]) == {"before": False, "after": False}


@pytest.mark.parametrize("builder", SWEEP_BUILDERS)
def test_cold_builder_imports_numpy_itself(builder):
    assert _cold(SWEEP_BUILDERS[builder]) == {"before": False, "after": True}
