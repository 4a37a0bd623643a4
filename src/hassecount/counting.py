"""#E via the point-order Las Vegas algorithm, with the exhaustive fallback,
group exponent, and group structure.

The Las Vegas loop keeps one congruence on the trace of Frobenius.  A point
of order n on E contributes t = q+1 (mod n); a point on the quadratic twist
contributes t = -(q+1) (mod n).  Sampling alternates E, E', E, ... starting
on E, and the loop stops as soon as exactly one admissible trace survives.
The result is verified against three fresh points before being returned, so
the output is correct independently of the random choices.

Each sample's BSGS searches only the traces the count still admits: the
loop's congruence merged with priors from Schoof's first steps in odd prime
fields.  Above _PRIOR_MIN_Q the 2-torsion gives t mod 2, or mod 4 when the
2-division cubic splits; above _PRIOR3_MIN_Q a 2-descent on the cubic's one
root gives t mod 4 on the other even curves too, and the 3-torsion adds
t mod 3, always for p = 1 (mod 3) and for p = 2 (mod 3) when t = 0 (mod 3),
from the roots of the 3-division polynomial.  Each cuts the search by about
the root of its modulus.  The search only gets cheaper: the exact order, and
so the congruence, the samples drawn and the result, are those of the
unrestricted search.

The exhaustive fallback (q <= _SMALL_Q under auto) counts each
completed-square class of an odd field once: the count of y^2 + a1 xy + a3 y
= x^3 + a2 x^2 + a4 x + a6 is that of its completed square y'^2 = x^3 + c2 x^2
+ c4 x + c6, y' = y + (a1 x + a3)/2 (Silverman, AEC, III.1), so count_points
keeps the CountResult per field under (c2, c4, c6).  The API route of a full
coefficient sweep of F_9 then runs count_exhaustive for its 648 nonsingular
classes, not for its 52,488 nonsingular vectors.  count_exhaustive itself
stays uncached: the random checks, the tests and selftest call it directly
as the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from typing import Literal

from .curve import (
    _SMALL_Q,
    EXCLUDED_Q,
    Curve,
    count_exhaustive,
    enumerate_points,
    quadratic_twist,
    random_point,
)
from .errors import ExcludedField, FieldTooLarge, InternalInvariantError, IterationCapExceeded
from .finite_field import _poly_gcd
from .order import (
    Congruence,
    Stats,
    bsgs_annihilator,
    crt_merge,
    exact_order,
    hasse_interval,
    unique_trace_candidate,
)

_SAMPLE_CAP = 64

# Prime fields above this size search BSGS under the 2-torsion prior on the
# trace.  Per count_points call the prior costs up to 2% more than it saves
# at q <= 1009, breaks even to within 1.5% from 3001 to 10^5 and saves 4% at
# 10^6 and 24% at 10^12 (CHANGES.md has the table).
_PRIOR_MIN_Q = 10_000

# Prime fields above this size also search under the 3-torsion prior, and
# settle t mod 4 by the 2-descent where the 2-division cubic has one root.
# Per count_points call the 3-torsion prior costs 1-10% more than it saves
# from 10^6 to 10^8, breaks even to within 1% at 10^9 and 2*10^9, and saves
# 7% (p = 1 mod 3) and 1% (p = 2 mod 3) at 4*10^9, 9% and 5% at 10^10 and
# 20% and 7% at 10^12.  The descent costs 1.5-2.6% at 10^6 and 10^7, saves
# 0.4-3.4% from 10^8 to 2^32, where the 3-torsion prior does not yet pay,
# and 2.4-5.4% from 10^10 to 10^12 (CHANGES.md has both tables).
_PRIOR3_MIN_Q = 1 << 32

Method = Literal["exhaustive", "point_order"]


# Slotted, so each instance is small: count_points keeps one exhaustive result
# per completed-square class of every odd field up to _SMALL_Q, in the
# FieldSpec's _count_memo.
@dataclass(frozen=True, slots=True)
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
    stats: Stats | None = None,
) -> CountResult:
    """#E by the requested method.

    auto: exhaustive enumeration when q <= 49 (which covers the whole
    excluded set), point orders above.  point_order on an excluded q raises
    ExcludedField because termination is not guaranteed there.

    In odd characteristic up to q = 49 an exhaustive count depends only on
    the completed square (Curve.completed_model), which q^2 coefficient
    vectors share, so its result is kept in the field's _count_memo under
    (c2, c4, c6) and count_exhaustive runs once per class.  Characteristic 2
    and larger fields count every call.

    A Stats passed as stats records what a point-order count did: each
    point drawn, with its side and order, and the logical group operations
    of every BSGS search, to which count_points passes it.  An exhaustive
    count records nothing.
    """
    spec = curve.spec
    q = spec.q
    if method == "auto":
        method = "exhaustive" if q <= _SMALL_Q else "point_order"
    elif method not in ("exhaustive", "point_order"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exhaustive":
        memo = None
        if q <= _SMALL_Q and not spec.char2:
            memo = spec._count_memo
            if memo is None:
                memo = spec._count_memo = {}
            key = curve.completed_model()[:3]
            res = memo.get(key)
            if res is not None:
                return res
        n = count_exhaustive(curve)
        res = CountResult(count=n, trace=q + 1 - n, method="exhaustive", samples_used=0,
                          twist_count=2 * (q + 1) - n)
        if memo is not None:
            memo[key] = res
        return res
    if q in EXCLUDED_Q:
        raise ExcludedField(f"point-order counting is not reliable over F_{q}")
    return _count_by_point_orders(curve, rng or random.Random(0), stats)


def _count_by_point_orders(curve: Curve, rng: random.Random, stats: Stats | None) -> CountResult:
    q = curve.spec.q
    twist = None  # E', built when the loop first samples on it
    cong = Congruence(0, 1)
    prior = cong
    if curve.spec.k == 1 and q > _PRIOR_MIN_Q:
        above3 = q > _PRIOR3_MIN_Q
        prior = _two_torsion_prior(curve, descent=above3)
        if above3:
            prior = crt_merge(prior, _three_torsion_prior(curve))
    qp1 = q + 1
    samples = 0
    while samples < _SAMPLE_CAP:
        on_twist = samples % 2 == 1
        e = (twist := twist or quadratic_twist(curve)) if on_twist else curve
        pt = random_point(e, rng)
        # BSGS searches only the traces both congruences admit (the twist's
        # trace is -t); the prior never enters the uniqueness test below
        search = cong if prior.m == 1 else crt_merge(cong, prior)
        if on_twist:
            search = Congruence(-search.a % search.m, search.m)
        n = exact_order(e, pt, bsgs_annihilator(e, pt, stats, search))
        samples += 1
        if stats is not None:
            stats.samples.append(
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


def _two_torsion_prior(curve: Curve, descent: bool) -> Congruence:
    """The trace congruence that E[2] fixes, over F_p, p > 3.

    The 2-torsion points are infinity and the roots of the cubic f = x^3 +
    a x + b of the short model (Curve.short_model), so #E is odd with no
    root (t = q mod 2), even with one (t = q+1 mod 2), and divisible by 4
    with three (t = q+1 mod 4); two roots force the third.  f is separable,
    so by Stickelberger its discriminant, 1/16 of the curve's, is a square
    exactly when f has 0 or 3 roots, and then x^p = x (mod f) tells three
    roots from none: Schoof's l = 2 step, deg gcd(x^p - x, f).  x^p mod f is
    x^p mod x*f = x^4 + a x^2 + b x (_x_power_mod, shared with the 3-torsion
    prior) reduced by x^3 = -a x - b.

    Without descent a one-root curve gives t mod 2 only; count_points asks
    for it above _PRIOR3_MIN_Q.  With descent, the one root
    x0 = gcd(x^p - x, f) settles t mod 4 as well.
    The 2-part of E(F_p) is then cyclic, so 4 | #E exactly when (x0, 0)
    halves.  By the 2-descent (Silverman, AEC, X.1.4) it halves exactly
    when f'(x0) is a square in F_p and x0 - r is a square in F_p(r) for a
    root r of f/(x - x0); over a finite field the norm f'(x0) gives the
    class of the latter too, so the halves are the points with
    x - x0 = +-sqrt(f'(x0)), and t = q+1 (mod 4) if f'(x0) is a square,
    t = q-1 (mod 4) if not.  Shifting x leaves f'(x0) as it is.
    """
    p = curve.spec.p
    is_square = curve.spec.is_square_enc
    one_root = not is_square(curve.discriminant)
    if one_root and not descent:
        return Congruence((p + 1) % 2, 2)
    _, a, b = curve.short_model()
    r0, r1, r2, r3 = _x_power_mod(p, 0, b, a, p)
    r0, r1 = (r0 - b * r3) % p, (r1 - a * r3) % p
    if not one_root:
        if (r0, r1, r2) == (0, 1, 0):
            return Congruence((p + 1) % 4, 4)
        return Congruence(p % 2, 2)
    g = _poly_gcd([b, a, 0, 1], [r0, (r1 - 1) % p, r2], p)
    if len(g) != 2:
        raise InternalInvariantError(f"gcd(x^p - x, f) has degree {len(g) - 1} over F_{p}")
    x0 = -g[0] * pow(g[1], -1, p) % p
    if is_square((3 * x0 * x0 + a) % p):
        return Congruence((p + 1) % 4, 4)
    return Congruence((p - 1) % 4, 4)


def _three_torsion_prior(curve: Curve) -> Congruence:
    """The trace congruence that Frobenius on E[3] fixes, over F_p, p > 3.

    The roots of the 3-division polynomial psi_3 are the x of the four lines
    of E[3], and one is in F_p exactly when Frobenius, with characteristic
    polynomial X^2 - tX + p (mod 3) on E[3], fixes its line: Schoof's l = 3
    step, deg g for g = gcd(x^p - x, psi_3).  For p = 1 (mod 3), deg g = 0
    means t = 0 (mod 3); otherwise deg g is 1 or 4 and every such line has
    the same eigenvalue, +1 when f(x0) is a square for the roots x0 of g
    (t = 2 mod 3) and -1 when not (t = 1 mod 3).  For p = 2 (mod 3), deg g =
    2 means t = 0 and deg g = 0 leaves t = +-1, no single congruence.
    """
    p = curve.spec.p
    is_square = curve.spec.is_square_enc
    _, a, b = curve.short_model()
    # on y^2 = f(x) = x^3 + a x + b: psi_3 / 3 = x^4 + e2 x^2 + e1 x + e0, psi = (e0, e1, e2)
    psi = (-a * a * pow(3, -1, p) % p, 4 * b % p, 2 * a % p)
    r = _x_power_mod(p, *psi, p)
    if r == (0, 1, 0, 0):
        g = [*psi, 0, 1]
    else:
        g = _poly_gcd([*psi, 0, 1], [r[0], (r[1] - 1) % p, r[2], r[3]], p)
    deg = len(g) - 1
    if p % 3 == 2 and deg in (0, 2):
        return Congruence(0, 3) if deg else Congruence(0, 1)
    if p % 3 == 1 and deg in (0, 1, 4):
        if deg == 0:
            return Congruence(0, 3)
        if deg == 1:
            x0 = -g[0] * pow(g[1], -1, p) % p
            square = is_square((x0 * x0 * x0 + a * x0 + b) % p)
        elif a == 0:  # x0 = 0 is a root
            square = is_square(b)
        else:
            # doubling a root x0 gives x0 again, so (3 x0^2 + a)^2 = 12 x0 f(x0):
            # f(x0) has the character of 3 x0, one constant x^((p-1)/2) mod psi_3
            c = _x_power_mod((p - 1) // 2, *psi, p)
            if c[1:] != (0, 0, 0) or c[0] not in (1, p - 1):
                raise InternalInvariantError(f"x^((p-1)/2) mod psi_3 is {c}, not +-1")
            square = (c[0] == 1) == is_square(3)
        return Congruence(2, 3) if square else Congruence(1, 3)
    raise InternalInvariantError(f"gcd(x^p - x, psi_3) has degree {deg} over F_{p}")


def _x_power_mod(n: int, e0: int, e1: int, e2: int, p: int) -> tuple[int, int, int, int]:
    """(r0, r1, r2, r3) with r0 + r1 x + r2 x^2 + r3 x^3 = x^n (n >= 1) modulo
    x^4 + e2 x^2 + e1 x + e0 over F_p: square, then multiply by x on a set bit."""
    r0, r1, r2, r3 = 0, 1, 0, 0
    for bit in bin(n)[3:]:
        d6 = r3 * r3  # d6 and d5 only feed reduced sums
        d5 = (r2 + r2) * r3
        d4 = (r2 * r2 + (r1 + r1) * r3 - e2 * d6) % p
        d3 = 2 * (r0 * r3 + r1 * r2) - e1 * d6 - e2 * d5
        d2 = r1 * r1 + (r0 + r0) * r2 - e0 * d6 - e1 * d5 - e2 * d4
        r1 = ((r0 + r0) * r1 - e0 * d5 - e1 * d4) % p
        r0 = (r0 * r0 - e0 * d4) % p
        r2, r3 = d2 % p, d3 % p
        if bit == "1":  # x^4 = -e2 x^2 - e1 x - e0
            r0, r1, r2, r3 = -e0 * r3 % p, (r0 - e1 * r3) % p, (r1 - e2 * r3) % p, r2
    return r0, r1, r2, r3


def _verify_count(curve: Curve, count: int, rng: random.Random) -> None:
    if count not in hasse_interval(curve.spec.q):
        raise InternalInvariantError(f"count {count} outside the Hasse interval")
    for _ in range(3):
        pt = random_point(curve, rng)
        if curve.mul(count, *curve.to_model(pt))[0] is not None:
            raise InternalInvariantError("Lagrange verification failed for the computed count")


def lambda_exponent(curve: Curve) -> int:
    """The group exponent lambda(E), the lcm of the orders of all rational
    points: the n2 of group_structure, with its q <= 2^16 guard.  Public API,
    exported from hassecount."""
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
