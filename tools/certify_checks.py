"""The time of each check of one certification pass, and the pass's peak RSS.

    python3 tools/certify_checks.py --seed 29001
    python3 tools/certify_checks.py --seed 29001 --runs 3

Run from the repository root, one pass per process, so that every field,
table and cache is built cold, as in perfbench's certify workload.  With
--runs N (N > 1) the tool runs N passes, each in a fresh interpreter of its
own, and prints the median of each check's time, of the total and of the
peak RSS over the N passes, in the same layout.  The pass
is perfbench's own: perfbench/workloads.py's certify_pass over
certify_plan(seed), with its checks, in its order.  Kernel ticks are off, as
in a traced pass, so no reference-kernel time falls inside a check.

Each check calls the library through exceptions.exceptional_q_set,
exceptions.verify_table1, sweep.full_sweep_verify or
sweep.random_curve_counting_check.  Those module attributes are wrapped for
the pass, and a check's time is the wall time of its calls to them, keyed by
the check's index, which certify_pass sets as the tracer's owner_id.  The
rows are labelled in check order: the three fixed checks, a sweep per field
of SWEEP_QS, then the plan's random-curve checks.  The output is one line per
check (ms, then the check's label), the total, the process's peak RSS
(ru_maxrss), and each failed check, if any; the exit code is 1 if a check
failed or the pass ran other checks than these, in any of the passes.
"""

from __future__ import annotations

import argparse
import functools
import resource
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from hassecount import exceptions, sweep  # noqa: E402

ENTRY_POINTS = [(exceptions, "exceptional_q_set"), (exceptions, "verify_table1"),
                (sweep, "full_sweep_verify"), (sweep, "random_curve_counting_check")]


def check_labels(plan: list) -> list[str]:
    """The checks of certify_pass over `plan`, in the order it runs them."""
    return (["exceptional_q_set(1024)", "exceptional_q_set(1024, corollary=True)", "verify_table1"]
            + [f"full_sweep_verify(F_{q})" for q in workloads.SWEEP_QS]
            + [f"random_curve_counting_check(F_{q}, seed={s})" for q, s in plan])


def timed_pass(plan: list) -> tuple[workloads.CertifyPass, dict[int, float]]:
    """Run certify_pass over `plan`; also return the seconds per check index."""
    # a tracer-like object turns the kernel ticks off; certify_pass sets its
    # owner_id to the index (from 1) of the running check
    tracer = SimpleNamespace(owner_id=0)
    times: dict[int, float] = defaultdict(float)

    def timed(real):
        @functools.wraps(real)
        def call(*args, **kwargs):
            t0 = perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                times[tracer.owner_id] += perf_counter() - t0

        return call

    saved = [(owner, fn, getattr(owner, fn)) for owner, fn in ENTRY_POINTS]
    for owner, fn, real in saved:
        setattr(owner, fn, timed(real))
    try:
        return workloads.certify_pass(plan, tracer), times
    finally:
        for owner, fn, real in saved:
            setattr(owner, fn, real)


def report(header: str, labels: list[str], ms: list[float], total_ms: float, peak_mb: float) -> None:
    """Print a pass's rows: the header, one line per check, the total and the
    peak RSS."""
    print(f"{'ms':>9}  check ({header})")
    for t, label in zip(ms, labels):
        print(f"{t:9.2f}  {label}")
    print(f"{total_ms:9.2f}  total of {len(labels)} checks")
    print(f"peak RSS {peak_mb:.1f} MB")


def one_pass(seed: int, plan: list, labels: list[str]) -> int:
    """One pass in this process, reported by `report`; its exit code."""
    done, times = timed_pass(plan)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    ms = [times.get(i, 0.0) * 1e3 for i in range(1, len(labels) + 1)]
    report(f"seed {seed}", labels, ms, sum(times.values()) * 1e3, peak_mb)
    for why in done.failures:
        print(f"FAILED {why}")
    mismatch = done.checks != len(labels) or set(times) != set(range(1, len(labels) + 1))
    if mismatch:
        print(f"FAILED the pass ran {done.checks} checks, timed {sorted(times)}; "
              f"expected {len(labels)}, each calling an entry point")
    return 1 if done.failures or mismatch else 0


def median_of_passes(seed: int, runs: int, labels: list[str]) -> int:
    """`runs` passes, each in a fresh interpreter running this tool, reported
    as the median of each row; the exit code is 1 if any pass failed."""
    passes, failed = [], []
    for run in range(1, runs + 1):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--seed", str(seed)],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        failed += [f"FAILED run {run}: {line[7:]}" for line in lines if line.startswith("FAILED ")]
        rows = lines[1:len(labels) + 3]
        if (done.returncode not in (0, 1) or len(rows) != len(labels) + 2
                or [row.split(None, 1)[1] for row in rows[:-2]] != labels):
            failed.append(f"FAILED run {run}: exit {done.returncode}, unreadable output "
                          f"{done.stderr.strip().splitlines()[-1:]}")
            continue
        passes.append([float(row.split(None, 1)[0]) for row in rows[:-1]] + [float(rows[-1].split()[2])])
    if passes:
        cols = [median(col) for col in zip(*passes)]
        report(f"seed {seed}, median of {len(passes)} runs", labels, cols[:-2], cols[-2], cols[-1])
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
