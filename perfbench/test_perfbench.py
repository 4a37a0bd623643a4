"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench -q"""

import math
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import refspeed  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from hassecount import curve, finite_field  # noqa: E402


# -- tail percentile ------------------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond():
    p, value = summary.tail_percentile([float(v) for v in range(1, 101)])
    assert (p, value) == (90, 90.0)  # 91..100 lie beyond it


@pytest.mark.parametrize("n", [11, 19, 20, 99, 100, 101, 250, 271, 1000])
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    p, value = summary.tail_percentile(values)
    ranked = sorted(values)
    assert sum(v > value for v in ranked) >= summary.TAIL_BEYOND
    if p < 99:
        assert n - math.ceil((p + 1) * n / 100) < summary.TAIL_BEYOND


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        summary.tail_percentile([1.0] * 10)


# -- failed_frac and the count oracle ---------------------------------------------

def test_oracle_catches_doctored_and_raising_calls():
    spec = finite_field.spec_for_q(10007)  # 10007 = 3 (mod 4), so the known answer applies
    setup = workloads.Setup(5, [spec], workloads.curve_panel(spec, 5, 4), 0, 0, 0)
    run = workloads.count_loop(setup, 4, cap_s=60)
    assert len(run.results) == len(run.ref_latencies) == 4
    assert workloads.count_failures(setup, run) == []

    good = run.results[1]
    # Consistent with the Hasse bound and the twist identity; only the
    # point checks can tell that it is wrong.
    run.results[1] = replace(good, count=good.count + 1, trace=good.trace - 1,
                             twist_count=good.twist_count - 1)
    run.results[2] = RuntimeError("boom")
    failures = workloads.count_failures(setup, run)
    assert [f.split(":")[0] for f in failures] == ["curve 1", "curve 2"]
    attempted = len(run.results) + 1
    assert summary.failed_frac(attempted, len(failures)) == pytest.approx(2 / 5)


def test_oracle_rejects_count_outside_hasse_interval():
    spec = finite_field.spec_for_q(10007)
    e = workloads.curve_panel(spec, 1, 1)[0]
    res = workloads.count_one(workloads.Setup(1, [spec], [e], 0, 0, 0), 0)[2]
    far = replace(res, count=spec.q + 1 + 300, trace=-300, twist_count=spec.q + 1 - 300)
    assert "Hasse" in workloads.check_count(e, far, random.Random(0))


# -- spans ------------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    tracer = spans.Tracer()
    a = tracer.enter(tracer.name_id("A"))
    b = tracer.enter(tracer.name_id("B"))
    tracer.exit(tracer.enter(tracer.name_id("C")))
    tracer.exit(b)
    tracer.exit(tracer.enter(tracer.name_id("D")))
    tracer.exit(a)
    for idx, (start, end) in enumerate([(0, 10), (1, 4), (2, 3), (5, 9)]):
        tracer.start[idx], tracer.end[idx] = start, end
    assert list(tracer.parent) == [-1, 0, 1, 0]
    assert tracer.self_times() == [3, 2, 1, 4]
    assert sum(tracer.self_times()) == tracer.durations()[0]
    assert tracer.nearest("B") == [-1, 1, 1, -1]


def test_install_records_nested_spans_and_restores():
    spec = finite_field.spec_for_q(10007)
    e = workloads.curve_panel(spec, 2, 1)[0]
    original = curve.Curve.add_points
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        workloads.counting.count_points(e, "point_order", random.Random(0))
    finally:
        spans.restore(saved)
    assert curve.Curve.add_points is original
    metrics = summary.count_layer_metrics(tracer)
    assert metrics["curve.add_calls_per_curve"] > metrics["order.bsgs_group_ops"] > 0
    assert metrics["finite_field.mul_calls_per_curve"] > 0
    shares = summary.count_time_by_layer(tracer)
    assert sum(shares.values()) == pytest.approx(1.0)


# -- reference speed ----------------------------------------------------------------

def test_at_ref_rescales_by_the_median_of_nearby_kernel_samples():
    speed = refspeed.SpeedLog()
    assert refspeed.WINDOW == 4
    # kernel samples (start, end): five before the operation, three after it
    for t0, t1 in [(0, 9), (9, 10), (10, 16), (16, 18), (18, 22),
                   (39, 43), (43, 49), (49, 50)]:
        speed.starts.append(t0)
        speed.ends.append(t1)
        speed.durations.append(t1 - t0)
    # the operation runs from 22 to 39: the median of 1, 6, 2, 4 and 4, 6, 1 is 4
    expected = 17 * refspeed.REF_S / 4
    assert speed.at_ref(22, 39) == pytest.approx(expected)
    with pytest.raises(ValueError):
        refspeed.SpeedLog().at_ref(0, 1)


def test_samples_inside_an_operation_are_taken_out_and_used():
    speed = refspeed.SpeedLog()
    # one sample before, two inside the operation from 10 to 30, one after
    for t0, t1 in [(0, 2), (12, 16), (20, 26), (30, 32)]:
        speed.starts.append(t0)
        speed.ends.append(t1)
        speed.durations.append(t1 - t0)
    assert speed.measured(10, 30) == 20 - 4 - 6
    # the median of 2, 4, 6, 2 is 3
    assert speed.at_ref(10, 30) == pytest.approx(10 * refspeed.REF_S / 3)


def test_ticking_samples_during_a_long_call_and_disarms():
    import signal
    from time import perf_counter

    speed = refspeed.SpeedLog()
    with speed.ticking(0.01):
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            pass
        t1 = perf_counter()
    assert len(speed.durations) >= 3
    assert speed.measured(t0, t1) < t1 - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.starts == sorted(speed.starts)
