"""The time of each check of one certification pass, and the pass's peak RSS.

    python3 tools/certify_checks.py --seed 29001

Run from the repository root, one pass per process, so that every field,
table and cache is built cold, as in perfbench's certify workload.  The pass
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
failed or the pass ran other checks than these.
"""

from __future__ import annotations

import argparse
import functools
import resource
import sys
from collections import defaultdict
from pathlib import Path
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


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True, help="the certify_plan seed")
    args = ap.parse_args(argv)
    plan = workloads.certify_plan(args.seed)
    labels = check_labels(plan)

    done, times = timed_pass(plan)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{'ms':>9}  check (seed {args.seed})")
    for i, label in enumerate(labels, 1):
        print(f"{times.get(i, 0.0) * 1e3:9.2f}  {label}")
    print(f"{sum(times.values()) * 1e3:9.2f}  total of {len(labels)} checks")
    print(f"peak RSS {peak_mb:.1f} MB")
    for why in done.failures:
        print(f"FAILED {why}")
    mismatch = done.checks != len(labels) or set(times) != set(range(1, len(labels) + 1))
    if mismatch:
        print(f"FAILED the pass ran {done.checks} checks, timed {sorted(times)}; "
              f"expected {len(labels)}, each calling an entry point")
    return 1 if done.failures or mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
