"""Fresh-interpreter runs (set-up and certification passes), and per-call
times of single layer operations on fixed inputs."""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

FRESH = Path(__file__).resolve().parent / "fresh.py"
FRESH_TIMEOUT_S = 120
SETUP_REF_S = 0.15  # the reference start-up's time at reference speed, about its median
OPERANDS = 64
REPS = 7
REP_MIN_S = 0.02


def fresh_interpreter(*argv: str) -> tuple[float, dict]:
    """Runs fresh.py with `argv`: (seconds from spawn until its JSON line,
    the line's fields)."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(FRESH), *argv], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        ready_s = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=FRESH_TIMEOUT_S)
    if code != 0 or not line:
        raise RuntimeError(f"fresh.py {' '.join(argv)} exited with code {code}")
    return ready_s, json.loads(line)


def setup_probes(workload: str, seed: int, reps: int) -> list[tuple[float, float, dict]]:
    """`reps` fresh-interpreter set-ups, each between two reference start-ups:
    (seconds until ready as measured, the same at reference speed, the
    child's fields) per set-up.

    The reference is `fresh.py numpy`, a fresh interpreter that imports numpy
    and nothing of the library.  Set-up time drifted by up to 20% over tens
    of minutes, in phases the reference kernel of refspeed.py did not see;
    the reference start-up followed it, and a set-up is rescaled to the speed
    at which the reference takes SETUP_REF_S, by the mean of the two around it.
    """
    refs = [fresh_interpreter("numpy")[0]]
    probed = []
    for _ in range(reps):
        probed.append(fresh_interpreter("setup", workload, str(seed)))
        refs.append(fresh_interpreter("numpy")[0])
    return [
        (ready_s, ready_s * SETUP_REF_S / ((refs[k] + refs[k + 1]) / 2), fields)
        for k, (ready_s, fields) in enumerate(probed)
    ]


def certify_pass(seed: int, spans_path: Path | None = None) -> dict:
    """One certification pass in a fresh interpreter (see fresh.py)."""
    return fresh_interpreter("pass", str(seed), *([str(spans_path)] if spans_path else []))[1]


def _per_call_us(fn, args_list) -> float:
    """Median over REPS repetitions of the mean time of fn(*args), in us."""
    fn(*args_list[0])  # builds any lazy table before timing
    times = []
    for _ in range(REPS):
        calls = 0
        t0 = perf_counter()
        while True:
            for args in args_list:
                fn(*args)
            calls += len(args_list)
            elapsed = perf_counter() - t0
            if elapsed >= REP_MIN_S:
                break
        times.append(elapsed / calls)
    return 1e6 * statistics.median(times)


def field_op_us(spec) -> dict[str, float]:
    """mul/inv/sqrt per call on a fixed operand list in `spec`."""
    rng = random.Random(0xF1E1D)
    ops = [1 + rng.randrange(spec.q - 1) for _ in range(OPERANDS)]
    squares = [spec.mul_enc(a, a) for a in ops]
    return {
        "finite_field.mul_us": _per_call_us(spec.mul_enc, list(zip(ops, ops[1:] + ops[:1]))),
        "finite_field.inv_us": _per_call_us(spec.inv_enc, [(a,) for a in ops]),
        "finite_field.sqrt_us": _per_call_us(spec.sqrt_enc, [(s,) for s in squares]),
    }


def group_op_us(spec) -> dict[str, float]:
    """Curve.add_points per call on fixed point pairs, and on P+P."""
    from hassecount import curve
    from hassecount.errors import SingularCurve

    rng = random.Random(0xADD)
    while True:
        try:
            e = curve.Curve(spec, *(rng.randrange(spec.q) for _ in range(5)))
            break
        except SingularCurve:
            continue
    pts = [curve.random_point(e, rng) for _ in range(OPERANDS + 1)]
    pairs = [(p, r) for p, r in zip(pts, pts[1:])
             if not p.is_infinity and not r.is_infinity and p.x != r.x]
    doubles = [(p, p) for p in pts if not p.is_infinity and e.negate(p) != p]
    return {
        "curve.add_us": _per_call_us(e.add_points, pairs),
        "curve.double_us": _per_call_us(e.add_points, doubles),
    }

