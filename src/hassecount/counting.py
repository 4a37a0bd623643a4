"""#E via the point-order Las Vegas algorithm, with the exhaustive fallback,
group exponent, and group structure.

The Las Vegas loop keeps one congruence on the trace of Frobenius.  A point
of order n on E contributes t = q+1 (mod n); a point on the quadratic twist
contributes t = -(q+1) (mod n).  Sampling alternates E, E', E, ... starting
on E, and the loop stops as soon as exactly one admissible trace survives.
The result is verified against three fresh points before being returned, so
the output is correct independently of the random choices.

Each sample's BSGS searches only the traces the count still admits: the
loop's congruence merged with a prior from the 2-torsion (t mod 2, or mod 4
when the 2-division cubic splits), in odd prime fields above _PRIOR_MIN_Q.
The search only gets cheaper: the exact order, and so the congruence, the
samples drawn and the result, are those of the unrestricted search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from typing import Literal

from .curve import (
    Curve,
    count_exhaustive,
    enumerate_points,
    quadratic_twist,
    random_point,
)
from .errors import ExcludedField, FieldTooLarge, InternalInvariantError, IterationCapExceeded
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

# Below this size exhaustive enumeration beats point orders outright; it
# also covers EXCLUDED_Q, whose largest member is 49.
_SMALL_Q = 49

_SAMPLE_CAP = 64

# Prime fields above this size search BSGS under the 2-torsion prior on the
# trace.  Per count_points call the prior costs up to 2% more than it saves
# at q <= 1009, breaks even to within 1.5% from 3001 to 10^5 and saves 4% at
# 10^6 and 24% at 10^12 (CHANGES.md has the table).
_PRIOR_MIN_Q = 10_000

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
        method = "exhaustive" if q <= _SMALL_Q else "point_order"
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
    prior = _two_torsion_prior(curve) if curve.spec.k == 1 and q > _PRIOR_MIN_Q else cong
    qp1 = q + 1
    samples = 0
    while samples < _SAMPLE_CAP:
        on_twist = samples % 2 == 1
        e = twist if on_twist else curve
        pt = random_point(e, rng)
        # BSGS searches only the traces both congruences admit (the twist's
        # trace is -t); the prior never enters the uniqueness test below
        search = crt_merge(cong, prior)
        if on_twist:
            search = Congruence(-search.a % search.m, search.m)
        n = exact_order(e, pt, bsgs_annihilator(e, pt, trace=search))
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


def _two_torsion_prior(curve: Curve) -> Congruence:
    """The trace congruence that E[2] fixes, over an odd prime field.

    The 2-torsion points are infinity and the roots of the cubic
    f = x^3 + c2 x^2 + c4 x + c6 of the completed square, so #E is odd with
    no root (t = q mod 2), even with one (t = q+1 mod 2), and divisible by
    4 with three (t = q+1 mod 4); two roots force the third.  f is separable,
    so by Stickelberger its discriminant, 1/16 of the curve's, is a square
    exactly when f has 0 or 3 roots, and then x^p = x (mod f) tells three
    roots from none: Schoof's l = 2 step, deg gcd(x^p - x, f).
    """
    p = curve.spec.p
    if not curve.spec.is_square_enc(curve.discriminant):
        return Congruence((p + 1) % 2, 2)
    c2, c4, c6 = curve.completed_model()[:3]
    # r0 + r1 x + r2 x^2 = x^p mod f: square, then multiply by x on a set bit
    r0, r1, r2 = 0, 1, 0
    for bit in bin(p)[3:]:
        d4 = r2 * r2 % p
        d3 = (2 * r1 * r2 - c2 * d4) % p
        d2 = r1 * r1 + 2 * r0 * r2 - c4 * d4 - c2 * d3
        r1 = (2 * r0 * r1 - c6 * d4 - c4 * d3) % p
        r0 = (r0 * r0 - c6 * d3) % p
        r2 = d2 % p
        if bit == "1":  # x^3 = -c2 x^2 - c4 x - c6
            r0, r1, r2 = -c6 * r2 % p, (r0 - c4 * r2) % p, (r1 - c2 * r2) % p
    if (r0, r1, r2) == (0, 1, 0):
        return Congruence((p + 1) % 4, 4)
    return Congruence(p % 2, 2)


def _verify_count(curve: Curve, count: int, rng: random.Random) -> None:
    if count not in hasse_interval(curve.spec.q):
        raise InternalInvariantError(f"count {count} outside the Hasse interval")
    for _ in range(3):
        pt = random_point(curve, rng)
        if not curve.scalar_mul(count, pt).is_infinity:
            raise InternalInvariantError("Lagrange verification failed for the computed count")


def lambda_exponent(curve: Curve) -> int:
    """Group exponent: lcm of the orders of all rational points (q <= 2^16)."""
    return group_structure(curve).n2


def group_structure(curve: Curve) -> GroupStructure:
    """(n1, n2) with E(F_q) = Z/n1 x Z/n2, n1 | n2 (and n1 | q-1).

    One enumeration gives #E as the number of points and n2 as the lcm of
    their orders, each found by exact_order with #E as the annihilator,
    stopping once it reaches #E.
    """
    if curve.spec.q > 1 << 16:
        raise FieldTooLarge("structure computation enumerates all points; q <= 2^16 only")
    pts = enumerate_points(curve)
    n = len(pts)
    n2 = 1
    for pt in pts:
        n2 = lcm(n2, exact_order(curve, pt, n))
        if n2 == n:
            break
    n1, rem = divmod(n, n2)
    if rem or n2 % n1 or (curve.spec.q - 1) % n1:
        raise InternalInvariantError(
            f"structure invariants violated: #E={n}, lambda={n2} over F_{curve.spec.q}"
        )
    return GroupStructure(n1=n1, n2=n2)
