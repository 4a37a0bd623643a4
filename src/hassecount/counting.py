"""#E via the point-order Las Vegas algorithm, with the exhaustive fallback,
group exponent, and group structure.

The Las Vegas loop keeps one congruence on the trace of Frobenius.  A point
of order n on E contributes t = q+1 (mod n); a point on the quadratic twist
contributes t = -(q+1) (mod n).  Sampling alternates E, E', E, ... starting
on E, and the loop stops as soon as exactly one admissible trace survives.
The result is verified against three fresh points before being returned, so
the output is correct independently of the random choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Literal

from .curve import Curve, count_exhaustive, enumerate_points, quadratic_twist, random_point
from .errors import ExcludedField, FieldTooLarge, InternalInvariantError, IterationCapExceeded
from .integers import lcm
from .order import (
    Congruence,
    bsgs_annihilator,
    crt_merge,
    exact_order,
    hasse_interval,
    unique_trace_candidate,
)

# Field sizes where the trace congruence need not become unique; cross-checked
# against the exception enumerator in tests.
EXCLUDED_Q = frozenset({3, 4, 5, 7, 9, 11, 16, 17, 23, 25, 29, 49})

# Below this size exhaustive enumeration beats point orders outright.
_SMALL_Q = 49

_SAMPLE_CAP = 64

Method = Literal["exhaustive", "point_order"]


@dataclass(frozen=True)
class CountResult:
    count: int
    trace: int
    method: Method
    samples_used: int
    twist_count: int


@dataclass(frozen=True)
class GroupStructure:
    """E(F_q) isomorphic to Z/n1 x Z/n2 with n1 | n2."""

    n1: int
    n2: int


def count_points(
    curve: Curve,
    method: str = "auto",
    rng: random.Random | None = None,
    transcript: list | None = None,
) -> CountResult:
    """#E by the requested method.

    auto: exhaustive enumeration when q <= 49 (which covers the whole
    excluded set), point orders above.  point_order on an excluded q raises
    ExcludedField because termination is not guaranteed there.
    """
    q = curve.spec.q
    if method not in ("auto", "exhaustive", "point_order"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "exhaustive" if (q <= _SMALL_Q or q in EXCLUDED_Q) else "point_order"
    if method == "exhaustive":
        n = count_exhaustive(curve)
        return CountResult(
            count=n,
            trace=q + 1 - n,
            method="exhaustive",
            samples_used=0,
            twist_count=2 * (q + 1) - n,
        )
    if q in EXCLUDED_Q:
        raise ExcludedField(f"point-order counting is not reliable over F_{q}")
    return _count_by_point_orders(curve, rng or random.Random(0), transcript)


def _count_by_point_orders(
    curve: Curve, rng: random.Random, transcript: list | None
) -> CountResult:
    q = curve.spec.q
    twist = quadratic_twist(curve)
    cong = Congruence(0, 1)
    qp1 = q + 1
    samples = 0
    while samples < _SAMPLE_CAP:
        on_twist = samples % 2 == 1
        e = twist if on_twist else curve
        pt = random_point(e, rng)
        n = exact_order(e, pt, bsgs_annihilator(e, pt))
        samples += 1
        if transcript is not None:
            transcript.append(
                ("E'" if on_twist else "E", None if pt.is_infinity else (pt.x, pt.y), n)
            )
        residue = (-qp1) % n if on_twist else qp1 % n
        cong = crt_merge(cong, Congruence(residue, n))
        t = unique_trace_candidate(cong, q)
        if t is not None:
            count = qp1 - t
            _verify_count(curve, count, rng)
            return CountResult(
                count=count,
                trace=t,
                method="point_order",
                samples_used=samples,
                twist_count=qp1 + t,
            )
    raise IterationCapExceeded(
        f"no unique trace after {_SAMPLE_CAP} samples over F_{q} (bug: q is not excluded)"
    )


def _verify_count(curve: Curve, count: int, rng: random.Random) -> None:
    if count not in hasse_interval(curve.spec.q):
        raise InternalInvariantError(f"count {count} outside the Hasse interval")
    for _ in range(3):
        pt = random_point(curve, rng)
        if not curve.scalar_mul(count, pt).is_infinity:
            raise InternalInvariantError("Lagrange verification failed for the computed count")


def lambda_exponent(curve: Curve) -> int:
    """Group exponent: lcm of the orders of all rational points (q <= 2^16)."""
    if curve.spec.q > 1 << 16:
        raise FieldTooLarge("exponent computation enumerates all points; q <= 2^16 only")
    return _exponent_given_count(curve, count_exhaustive(curve))


def _exponent_given_count(curve: Curve, n: int) -> int:
    """Group exponent from #E = n: lcm of the point orders, each found by
    exact_order with n as the annihilator, stopping once it reaches n."""
    lam = 1
    for pt in enumerate_points(curve):
        lam = lcm(lam, exact_order(curve, pt, n))
        if lam == n:
            break
    return lam


def group_structure(curve: Curve) -> GroupStructure:
    """(n1, n2) with E(F_q) = Z/n1 x Z/n2, n1 | n2 (and n1 | q-1)."""
    if curve.spec.q > 1 << 16:
        raise FieldTooLarge("structure computation enumerates all points; q <= 2^16 only")
    n = count_exhaustive(curve)
    n2 = _exponent_given_count(curve, n)
    n1, rem = divmod(n, n2)
    if rem or n2 % n1 or (curve.spec.q - 1) % n1:
        raise InternalInvariantError(
            f"structure invariants violated: #E={n}, lambda={n2} over F_{curve.spec.q}"
        )
    return GroupStructure(n1=n1, n2=n2)
