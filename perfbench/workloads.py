"""The three workloads: set-up, the timed closed loops and the output oracles.

One caller at a time: every library call starts after the previous one
returned, and a certification pass runs in a child interpreter only while
the parent waits for it.  The library sees only the inputs generated here
from the seed, and is always called through its module attributes so that
the traced run's wrappers are the ones called.  Each timed call is
bracketed by samples of the reference kernel (refspeed.py), and its time is
kept both as measured and at reference speed.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from time import perf_counter

import hassecount.cli  # noqa: F401  the front end every CLI invocation imports
import refspeed
from hassecount import counting, curve, exceptions, finite_field, integers, sweep
from hassecount.errors import SingularCurve

PRIME_Q = 10**12 + 39
EXT_Q = 3**7  # smallest odd extension field above the 1200-element table limit
PANEL_SIZE = 512  # curves are reused, with fresh RNG seeds, if a run counts more

# A run does a fixed amount of work, so that two commits are compared on the
# same curves and at the same tail percentile.  count_* counts --seconds times
# about the seed commit's rate on a 2-vCPU Xeon at 2.1 GHz, so there its timed
# region takes about --seconds.  certify runs a pass per CERTIFY_PASS_S of
# --seconds; a pass took about 7.5 s there, and four passes keep the median
# pass time and the tail steady.  A run that has taken TIME_CAP times
# --seconds stops early.
CURVES_PER_S = {"count_prime": 12.0, "count_ext": 14.0}
CERTIFY_PASS_S = 5.0
TIME_CAP = 4

# Certification pass.  The sweep list holds prime, odd-extension and char-2
# fields; q^5 <= SWEEP_ALL_LIMIT sends every curve through count_points and 17
# takes the sampled route.
SWEEP_QS = (2, 3, 4, 5, 7, 9, 17)
SWEEP_ALL_LIMIT = 400_000
SWEEP_SAMPLES = 500
RANDOM_CHECK_MAX_Q = 256
RANDOM_CHECK_PER_Q = 5
EXPECTED_EXCEPTIONAL = frozenset({3, 4, 5, 7, 9, 11, 16, 17, 23, 25, 29, 49})
EXPECTED_COROLLARY = frozenset({5, 7, 9, 11, 17, 23, 29})
TABLE1_ROWS = 14
ORACLE_POINTS = 3  # fresh points checked on E; one more is checked on the twist
# certify: a kernel sample before a check if KERNEL_EVERY_S have passed since
# the last, and, untraced, one every KERNEL_TICK_S inside the checks, some of
# which run for seconds
KERNEL_EVERY_S = 0.02
KERNEL_TICK_S = 0.1


def is_count(workload: str) -> bool:
    return workload.startswith("count_")


def run_size(workload: str, seconds: float) -> int:
    """Curves (count_*) or certification passes (certify) in one run."""
    if is_count(workload):
        return max(1, round(CURVES_PER_S[workload] * seconds))
    return max(1, round(seconds / CERTIFY_PASS_S))


def random_check_qs() -> list[int]:
    """Non-excluded prime powers in (27, 256]."""
    return [
        q
        for q in integers.prime_powers(RANDOM_CHECK_MAX_Q)
        if q > 27 and q not in EXPECTED_EXCEPTIONAL
    ]


def field_sizes(workload: str) -> list[int]:
    if workload == "count_prime":
        return [PRIME_Q]
    if workload == "count_ext":
        return [EXT_Q]
    return list(SWEEP_QS) + random_check_qs()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    seed: int
    specs: list
    panel: list  # count_*: Curves; certify: (q, seed) random-check plan
    prime_check_s: float
    field_s: float
    panel_s: float


def curve_panel(spec, seed: int, size: int = PANEL_SIZE) -> list:
    """Uniformly random nonsingular long-Weierstrass curves over `spec`."""
    rng = random.Random(seed)
    panel = []
    while len(panel) < size:
        coeffs = [rng.randrange(spec.q) for _ in range(5)]
        try:
            panel.append(curve.Curve(spec, *coeffs))
        except SingularCurve:
            continue
    return panel


def certify_plan(seed: int) -> list[tuple[int, int]]:
    return [
        (q, seed * 1000 + j) for q in random_check_qs() for j in range(RANDOM_CHECK_PER_Q)
    ]


def prepare(workload: str, seed: int) -> Setup:
    """Everything the workload needs before timing starts."""
    qs = field_sizes(workload)
    t0 = perf_counter()
    for q in qs:
        integers.split_prime_power(q)
    t1 = perf_counter()
    specs = [finite_field.spec_for_q(q) for q in qs]
    t2 = perf_counter()
    panel = curve_panel(specs[0], seed) if is_count(workload) else certify_plan(seed)
    t3 = perf_counter()
    return Setup(seed, specs, panel, t1 - t0, t2 - t1, t3 - t2)


# ---------------------------------------------------------------------------
# count_*: closed loop of count_points calls
# ---------------------------------------------------------------------------

@dataclass
class CountRun:
    latencies: list[float] = field(default_factory=list)  # as measured
    ref_latencies: list[float] = field(default_factory=list)  # at reference speed
    results: list = field(default_factory=list)  # CountResult, or the exception raised
    kernel_s: list[float] = field(default_factory=list)  # the reference kernel's times


def count_one(setup: Setup, i: int) -> tuple[float, float, object]:
    """(start, end, result) of count_points(panel[i], "point_order", Random(seed + i));
    the result is the CountResult, or the exception the call raised."""
    e = setup.panel[i % len(setup.panel)]
    rng = random.Random(setup.seed + i)
    t0 = perf_counter()
    try:
        res = counting.count_points(e, "point_order", rng)
    except Exception as exc:  # a raising call is a failed operation
        res = exc
    return t0, perf_counter(), res


def count_loop(setup: Setup, curves: int, cap_s: float, tracer=None) -> CountRun:
    """Count curves 0 .. curves-1, with a kernel sample before each and one
    after the last, stopping early once `cap_s` have passed."""
    run = CountRun()
    speed = refspeed.SpeedLog()
    times = []
    start = perf_counter()
    for i in range(curves):
        if tracer is not None:
            tracer.owner_id = i
        speed.sample()
        t0, t1, res = count_one(setup, i)
        times.append((t0, t1))
        run.results.append(res)
        if perf_counter() - start >= cap_s:
            break
    speed.sample()
    run.latencies = [t1 - t0 for t0, t1 in times]
    run.ref_latencies = [speed.at_ref(t0, t1) for t0, t1 in times]
    run.kernel_s = speed.durations
    return run


def check_count(e, res, oracle_rng: random.Random) -> str | None:
    """Why `res` is not #E(F_q) for curve `e`, or None if every check passes.

    Independent of count_points' own choices: the Hasse bound, the twist
    identity, and n*P = O on fresh points of E, (2(q+1)-n)*P' = O on E'.
    """
    if isinstance(res, BaseException):
        return f"raised {res!r}"
    q = e.spec.q
    n = res.count
    t = q + 1 - n
    if t * t > 4 * q:
        return f"count {n} outside the Hasse interval"
    if res.trace != t or n + res.twist_count != 2 * (q + 1):
        return f"inconsistent result {res}"
    for _ in range(ORACLE_POINTS):
        if not e.scalar_mul(n, curve.random_point(e, oracle_rng)).is_infinity:
            return f"{n}*P != O on {e!r}"
    twist = curve.quadratic_twist(e)
    if not twist.scalar_mul(2 * (q + 1) - n, curve.random_point(twist, oracle_rng)).is_infinity:
        return f"{2 * (q + 1) - n}*P' != O on the twist of {e!r}"
    return None


def oracle_rng(seed: int, i: int) -> random.Random:
    return random.Random(f"oracle-{seed}-{i}")


def count_failures(setup: Setup, run: CountRun) -> list[str]:
    """Oracle verdicts on every counted curve, then the known-answer probe:
    y^2 = x^3 + x has q+1 points since q = 3 (mod 4)."""
    failures = []
    for i, res in enumerate(run.results):
        why = check_count(setup.panel[i % len(setup.panel)], res, oracle_rng(setup.seed, i))
        if why:
            failures.append(f"curve {i}: {why}")
    spec = setup.specs[0]
    try:
        got = counting.count_points(curve.Curve(spec, 0, 0, 0, 1, 0), "point_order",
                                    random.Random(setup.seed)).count
    except Exception as exc:  # a raising call is a failed operation
        got = exc
    if got != spec.q + 1:
        failures.append(f"y^2 = x^3 + x over F_{spec.q}: got {got!r}, expected {spec.q + 1}")
    return failures


# ---------------------------------------------------------------------------
# certify: one certification pass, run by fresh.py in a fresh interpreter so
# that every field, table and cache is built cold, as in a new selftest run
# ---------------------------------------------------------------------------

@dataclass
class CertifyPass:
    wall_s: float = 0.0  # time in the checks, as measured
    run_s: float = 0.0  # the same at reference speed
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    curve_latencies: list[float] = field(default_factory=list)  # at reference speed
    raw_curve_latencies: list[float] = field(default_factory=list)  # as measured
    curves_verified: int = 0
    api_checked: int = 0
    kernel_s: list[float] = field(default_factory=list)  # the reference kernel's times


def certify_pass(plan: list[tuple[int, int]], tracer=None) -> CertifyPass:
    """One pass; `plan` is the random-check plan from certify_plan."""
    out = CertifyPass()
    speed = refspeed.SpeedLog()
    speed.sample()
    check_times, curve_times = [], []

    def check(name, fn, *args):
        out.checks += 1
        if tracer is not None:
            tracer.owner_id = out.checks
        if perf_counter() - speed.ends[-1] >= KERNEL_EVERY_S:
            speed.sample()
        t0 = perf_counter()
        try:
            why = fn(*args)
        except Exception as exc:  # a raising check is a failed check
            why = f"raised {exc!r}"
        check_times.append((t0, perf_counter()))
        if why:
            out.failures.append(f"{name}: {why}")

    def exceptional(corollary, expected):
        got = exceptions.exceptional_q_set(1024, corollary=corollary)
        return None if got == expected else f"got {sorted(got)}"

    def table1():
        reports = exceptions.verify_table1()
        ok = sum(r.ok for r in reports)
        return None if (ok, len(reports)) == (TABLE1_ROWS, TABLE1_ROWS) else f"{ok}/{len(reports)} rows"

    def full_sweep(q):
        rep = sweep.full_sweep_verify(
            finite_field.spec_for_q(q), api_samples=SWEEP_SAMPLES,
            api_all_limit=SWEEP_ALL_LIMIT, seed=0,
        )
        total = q**5
        out.curves_verified += rep.curves
        out.api_checked += rep.api_checked
        # exactly q^4 of the q^5 long-Weierstrass equations are singular
        want = (total - q**4, q**4, total if total <= SWEEP_ALL_LIMIT else SWEEP_SAMPLES)
        got = (rep.curves, rep.singular, rep.api_checked)
        return None if got == want else f"(curves, singular, api_checked) = {got}, expected {want}"

    def random_check(q, s):
        t0 = perf_counter()
        n = sweep.random_curve_counting_check(finite_field.spec_for_q(q), 1, seed=s)
        curve_times.append((t0, perf_counter()))
        return None if n == 1 else f"checked {n} curves"

    # Ticks would put kernel time inside the library's spans, so a traced
    # pass samples only between checks.
    with speed.ticking(KERNEL_TICK_S) if tracer is None else contextlib.nullcontext():
        check("exceptional_q_set(1024)", exceptional, False, EXPECTED_EXCEPTIONAL)
        check("exceptional_q_set(1024, corollary=True)", exceptional, True, EXPECTED_COROLLARY)
        check("verify_table1", table1)
        for q in SWEEP_QS:
            check(f"full_sweep_verify(F_{q})", full_sweep, q)
        for q, s in plan:
            check(f"random_curve_counting_check(F_{q}, seed={s})", random_check, q, s)
    speed.sample()
    out.wall_s = sum(speed.measured(t0, t1) for t0, t1 in check_times)
    out.run_s = sum(speed.at_ref(t0, t1) for t0, t1 in check_times)
    out.raw_curve_latencies = [speed.measured(t0, t1) for t0, t1 in curve_times]
    out.curve_latencies = [speed.at_ref(t0, t1) for t0, t1 in curve_times]
    out.kernel_s = speed.durations
    return out

