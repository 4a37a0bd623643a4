"""tools/certify_checks.py in a fresh interpreter on a whole certification
pass: every check with its time as measured and at reference speed and its
label, then the totals and the peak RSS."""

import ast
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "certify_checks.py"


def pass_checks(seed):
    """The SWEEP_QS and certify_plan(seed) of perfbench/workloads.py, read in a
    child interpreter so that perfbench's modules stay out of this one."""
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']; import workloads; "
            f"print(list(workloads.SWEEP_QS)); print(workloads.certify_plan({seed}))")
    done = subprocess.run([sys.executable, "-c", code], cwd=_ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    qs, plan = done.stdout.splitlines()
    return ast.literal_eval(qs), ast.literal_eval(plan)


def test_certify_checks_times_each_check():
    sweep_qs, plan = pass_checks(1)
    done = subprocess.run([sys.executable, str(_TOOL), "--seed", "1"], cwd=_ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["ms", "ref", "ms", "check", "(seed", "1)"]
    rows = [line.split(None, 2) for line in lines[1:-2]]
    assert [name for _, _, name in rows] == (
        ["exceptional_q_set(1024)", "exceptional_q_set(1024, corollary=True)", "verify_table1"]
        + [f"full_sweep_verify(F_{q})" for q in sweep_qs]
        + [f"random_curve_counting_check(F_{q}, seed={s})" for q, s in plan]
    )
    assert sweep_qs == [2, 3, 4, 5, 7, 9, 17] and plan[0] == (31, 1000)
    for col in (0, 1):
        ms = [float(row[col]) for row in rows]
        assert all(t > 0 for t in ms)
        total = lines[-2].split(None, 2)
        assert total[2] == f"total of {len(rows)} checks"
        assert abs(float(total[col]) - sum(ms)) < 0.01 * len(rows)
    assert re.fullmatch(r"peak RSS \d+\.\d MB", lines[-1])


def test_certify_checks_median_of_runs():
    """--runs 2: two passes, each in its own interpreter, reported as the
    median of each column of each check, of the totals and of the peak RSS,
    in the same layout as one pass."""
    sweep_qs, plan = pass_checks(1)
    done = subprocess.run([sys.executable, str(_TOOL), "--runs", "2", "--seed", "1"], cwd=_ROOT,
                          capture_output=True, text=True, timeout=240)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["ms", "ref", "ms", "check", "(seed", "1,", "median", "of", "2", "runs)"]
    rows = [line.split(None, 2) for line in lines[1:-2]]
    assert len(rows) == 3 + len(sweep_qs) + len(plan)
    assert rows[0][2] == "exceptional_q_set(1024)" and rows[-1][2].startswith("random_curve_counting_check(")
    assert all(float(t) > 0 and float(r) > 0 for t, r, _ in rows)
    total = lines[-2].split(None, 2)
    assert total[2] == f"total of {len(rows)} checks"
    assert all(float(total[col]) > max(float(row[col]) for row in rows) for col in (0, 1))
    assert re.fullmatch(r"peak RSS \d+\.\d MB", lines[-1])
    bad = subprocess.run([sys.executable, str(_TOOL), "--runs", "0", "--seed", "1"], cwd=_ROOT,
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and "--runs must be at least 1" in bad.stderr
