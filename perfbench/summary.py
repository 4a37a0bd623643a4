"""Arithmetic on measurements: percentiles and the per-layer metrics of a trace."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """(p, value) for the highest whole percentile p < 100 with at least
    TAIL_BEYOND samples ranked beyond it; the value is the nearest-rank
    percentile, the ceil(p*n/100)-th smallest sample."""
    n = len(values)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, sorted(values)[rank - 1]
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("nothing was attempted")
    return failed / attempted


def paired_overhead(traced: list[float], untraced: list[float]) -> float:
    """Median over paired samples of traced/untraced - 1.  Pairing the same
    work and taking the median keeps a burst of outside load in one sample
    from setting the result."""
    return statistics.median(t / u for t, u in zip(traced, untraced)) - 1


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# per-layer metrics from a Tracer
# ---------------------------------------------------------------------------

CP = "counting.count_points"
BSGS = "order.bsgs_annihilator"
ADD = "curve.Curve.add_points"


def count_layer_metrics(tracer) -> dict[str, float]:
    """Per-call metrics of count_points and everything it calls."""
    dur = tracer.durations()
    own = tracer.self_times()
    names = [tracer.names[n] for n in tracer.name]
    under_cp = tracer.nearest(CP)
    under_bsgs = tracer.nearest(BSGS)
    calls = tracer.indices(CP)
    n_cp = len(calls) or 1

    def spans(name, inside_cp=True):
        return [i for i, nm in enumerate(names) if nm == name and (not inside_cp or under_cp[i] >= 0)]

    in_cp = [i for i in range(len(names)) if under_cp[i] >= 0]
    bsgs = spans(BSGS)
    return {
        "finite_field.mul_calls_per_curve":
            sum(tracer.counts["finite_field.mul_enc"][i] for i in in_cp) / n_cp,
        "finite_field.inv_calls_per_curve":
            sum(tracer.counts["finite_field.inv_enc"][i] for i in in_cp) / n_cp,
        "curve.add_calls_per_curve": len(spans(ADD)) / n_cp,
        "curve.random_point_ms": 1e3 * _mean(own[i] for i in spans("curve.random_point")),
        "curve.twist_ms": 1e3 * _mean(own[i] for i in spans("curve.quadratic_twist")),
        "curve.construct_us": 1e6 * _mean(dur[i] for i in spans("curve.Curve.__init__", False)),
        "order.bsgs_ms": 1e3 * _mean(dur[i] for i in bsgs),
        "order.bsgs_group_ops":
            sum(1 for i, nm in enumerate(names) if nm == ADD and under_bsgs[i] >= 0) / (len(bsgs) or 1),
        "order.exact_order_ms": 1e3 * _mean(dur[i] for i in spans("order.exact_order")),
        "integers.factorize_ms": 1e3 * sum(dur[i] for i in spans("integers.factorize")) / n_cp,
        "counting.self_ms": 1e3 * _mean(own[i] for i in calls),
        "counting.verify_ms": 1e3 * sum(
            dur[i] for i, nm in enumerate(names)
            if nm == "curve.Curve.scalar_mul" and tracer.parent[i] >= 0 and names[tracer.parent[i]] == CP
        ) / n_cp,
        "counting.samples_per_curve": sum(tracer.counts["counting.samples_used"][i] for i in calls) / n_cp,
    }


def count_time_by_layer(tracer) -> dict[str, float]:
    """Self time of every span inside count_points, summed by span name, as a
    share of the total count_points span time.  The shares add up to 1, so the
    share of "counting.count_points" itself, the time no wrapped layer
    covers, is what tells how much of count_points the spans leave unexplained."""
    own = tracer.self_times()
    dur = tracer.durations()
    under_cp = tracer.nearest(CP)
    total = sum(dur[i] for i in tracer.indices(CP))
    shares: dict[str, float] = {}
    for i, top in enumerate(under_cp):
        if top >= 0:
            name = tracer.names[tracer.name[i]]
            shares[name] = shares.get(name, 0.0) + own[i] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def certify_layer_metrics(tracer, cpass) -> dict[str, float]:
    """Metrics of one certification pass: the exception enumerator and the sweep."""
    dur = tracer.durations()
    own = tracer.self_times()
    under_set = tracer.nearest("exceptions.exceptional_q_set")
    enum = [i for i in tracer.indices("exceptions.enumerate_exceptions") if under_set[i] >= 0]

    def total_s(name):
        return sum(dur[i] for i in tracer.indices(name))

    return {
        "curve.count_exhaustive_ms": 1e3 * _mean(dur[i] for i in tracer.indices("curve.count_exhaustive")),
        "exceptions.enumerate_s": total_s("exceptions.exceptional_q_set"),
        "exceptions.records": sum(tracer.counts["exceptions.records"][i] for i in enum),
        "exceptions.table1_s": total_s("exceptions.verify_table1"),
        "sweep.full_sweep_s": total_s("sweep.full_sweep_verify"),
        "sweep.kernel_s": sum(own[i] for i in tracer.indices("sweep.full_sweep_verify")),
        "sweep.curves_verified": cpass.curves_verified,
        "sweep.api_checked": cpass.api_checked,
        "sweep.random_check_s": total_s("sweep.random_curve_counting_check"),
    }
