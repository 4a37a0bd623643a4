"""The time of each check of one certification pass, as measured and at
reference speed, and the pass's peak RSS.

    python3 tools/certify_checks.py --seed 29001
    python3 tools/certify_checks.py --seed 29001 --runs 3

Run from the repository root, one pass per process, so that every field,
table and cache is built cold, as in perfbench's certify workload.  With
--runs N (N > 1) the tool runs N passes, each in a fresh interpreter of its
own, and prints the median of each column of each row and of the peak RSS
over the N passes, in the same layout.  The pass is perfbench's own:
perfbench/workloads.py's certify_pass over certify_plan(seed), untraced,
with its checks, in its order, and with its samples of the reference kernel
(perfbench/refspeed.py): one before a check when the last is KERNEL_EVERY_S
old, and one every KERNEL_TICK_S from a timer inside the checks.

Each check calls the library through exceptions.exceptional_q_set,
exceptions.verify_table1, sweep.full_sweep_verify or
sweep.random_curve_counting_check, once.  Those module attributes are wrapped
for the pass, and a check's interval is that of its call, the n-th call
belonging to the n-th check.  Its two times are those perfbench's run_s sums
over the checks: "ms", the wall time less the kernel samples inside it
(SpeedLog.measured), and "ref ms", that time rescaled to the speed at which
the kernel takes REF_S, from the kernel samples around the check
(SpeedLog.at_ref).  Raw wall time on a shared VM varies by up to 1.5 times
between rounds; the reference column follows the machine's speed out.  The
rows are labelled in check order: the three fixed checks, a sweep per field
of SWEEP_QS, then the plan's random-curve checks.  The output is one line per
check (ms, ref ms, then the check's label), the totals, the process's peak
RSS (ru_maxrss), and each failed check, if any; the exit code is 1 if a check
failed or the pass ran other checks than these, in any of the passes.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import refspeed  # noqa: E402
import workloads  # noqa: E402
from hassecount import exceptions, sweep  # noqa: E402

ENTRY_POINTS = [(exceptions, "exceptional_q_set"), (exceptions, "verify_table1"),
                (sweep, "full_sweep_verify"), (sweep, "random_curve_counting_check")]


def check_labels(plan: list) -> list[str]:
    """The checks of certify_pass over `plan`, in the order it runs them."""
    return (["exceptional_q_set(1024)", "exceptional_q_set(1024, corollary=True)", "verify_table1"]
            + [f"full_sweep_verify(F_{q})" for q in workloads.SWEEP_QS]
            + [f"random_curve_counting_check(F_{q}, seed={s})" for q, s in plan])


def timed_pass(plan: list) -> tuple[workloads.CertifyPass, list[tuple[float, float]]]:
    """Run certify_pass over `plan`; also return each entry-point call's
    (measured, at reference speed) seconds, in call order, from the pass's
    own kernel samples."""
    intervals: list[tuple[float, float]] = []
    logs: list[refspeed.SpeedLog] = []

    class KeptSpeedLog(refspeed.SpeedLog):
        def __init__(self):
            super().__init__()
            logs.append(self)

    def timed(real):
        def call(*args, **kwargs):
            t0 = perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                intervals.append((t0, perf_counter()))

        return call

    with ExitStack() as stack:
        patches = [(owner, fn, timed(getattr(owner, fn))) for owner, fn in ENTRY_POINTS]
        for owner, attr, value in patches + [(refspeed, "SpeedLog", KeptSpeedLog)]:
            stack.callback(setattr, owner, attr, getattr(owner, attr))
            setattr(owner, attr, value)
        done = workloads.certify_pass(plan)
    (speed,) = logs
    return done, [(speed.measured(t0, t1), speed.at_ref(t0, t1)) for t0, t1 in intervals]


def report(header: str, labels: list[str], rows: list[tuple[float, float]], peak_mb: float) -> None:
    """Print a pass's rows: the header, one line per check with its two
    times in ms, the totals (the last row) and the peak RSS."""
    print(f"{'ms':>9} {'ref ms':>9}  check ({header})")
    for (t, r), label in zip(rows, labels + [f"total of {len(labels)} checks"]):
        print(f"{t:9.2f} {r:9.2f}  {label}")
    print(f"peak RSS {peak_mb:.1f} MB")


def one_pass(seed: int, plan: list, labels: list[str]) -> int:
    """One pass in this process, reported by `report`; its exit code."""
    done, times = timed_pass(plan)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    rows = [(t * 1e3, r * 1e3) for t, r in times]
    report(f"seed {seed}", labels, rows + [(sum(t for t, _ in rows), sum(r for _, r in rows))], peak_mb)
    for why in done.failures:
        print(f"FAILED {why}")
    mismatch = not done.checks == len(times) == len(labels)
    if mismatch:
        print(f"FAILED the pass ran {done.checks} checks and {len(times)} entry-point calls; "
              f"expected {len(labels)} of each")
    return 1 if done.failures or mismatch else 0


def median_of_passes(seed: int, runs: int, labels: list[str]) -> int:
    """`runs` passes, each in a fresh interpreter running this tool, reported
    as the median of each column of each row; the exit code is 1 if any pass
    failed."""
    passes, failed = [], []
    for run in range(1, runs + 1):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--seed", str(seed)],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        failed += [f"FAILED run {run}: {line[7:]}" for line in lines if line.startswith("FAILED ")]
        rows = [line.split(None, 2) for line in lines[1:len(labels) + 2]]
        if (done.returncode not in (0, 1) or len(lines) < len(labels) + 3
                or [row[2:] for row in rows[:-1]] != [[label] for label in labels]):
            failed.append(f"FAILED run {run}: exit {done.returncode}, unreadable output "
                          f"{done.stderr.strip().splitlines()[-1:]}")
            continue
        passes.append(([(float(t), float(r)) for t, r, _ in rows],
                       float(lines[len(labels) + 2].split()[2])))
    if passes:
        cols = [(median(t for t, _ in row), median(r for _, r in row))
                for row in zip(*(pass_rows for pass_rows, _ in passes))]
        report(f"seed {seed}, median of {len(passes)} runs", labels, cols, median(mb for _, mb in passes))
    for line in failed:
        print(line)
    return 1 if failed or not passes else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True, help="the certify_plan seed")
    ap.add_argument("--runs", type=int, default=1,
                    help="passes to run, each in a fresh interpreter; above 1, print medians")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    plan = workloads.certify_plan(args.seed)
    labels = check_labels(plan)
    if args.runs == 1:
        return one_pass(args.seed, plan, labels)
    return median_of_passes(args.seed, args.runs, labels)


if __name__ == "__main__":
    sys.exit(main())
