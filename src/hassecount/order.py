"""Point orders via baby-step giant-steps in the Hasse interval, plus the
integer machinery (CRT merging, trace-candidate logic) the counting engine
builds on.

All interval arithmetic is integer-exact through isqrt; the square-field
cases attain |t| = 2*sqrt(q) exactly, so floating point would be off by one
precisely where the interesting supersingular curves live.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .curve import Curve, Point
from .errors import IncompatibleCongruence, InternalInvariantError
from .integers import ext_gcd, factorize

__all__ = [
    "HasseInterval",
    "Congruence",
    "hasse_interval",
    "multiples_in_interval",
    "bsgs_annihilator",
    "exact_order",
    "crt_merge",
    "unique_trace_candidate",
    "trace_candidates",
]


@dataclass(frozen=True)
class HasseInterval:
    """[q+1-2*sqrt(q), q+1+2*sqrt(q)] with integer endpoints."""

    q: int
    lo: int
    hi: int
    trace_bound: int

    def __contains__(self, n: int) -> bool:
        return self.lo <= n <= self.hi


@dataclass(frozen=True)
class Congruence:
    """The constraint x = a (mod m), with the residue reduced."""

    a: int
    m: int

    def __post_init__(self):
        if self.m < 1 or not 0 <= self.a < self.m:
            raise ValueError(f"bad congruence ({self.a} mod {self.m})")


def hasse_interval(q: int) -> HasseInterval:
    """The interval guaranteed to contain #E for curves over F_q."""
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    tb = isqrt(4 * q)
    return HasseInterval(q=q, lo=q + 1 - tb, hi=q + 1 + tb, trace_bound=tb)


def multiples_in_interval(m: int, interval: HasseInterval) -> list[int]:
    """All multiples of m inside [lo, hi], ascending."""
    if m < 1:
        raise ValueError("m must be positive")
    first = -(-interval.lo // m) * m
    return list(range(first, interval.hi + 1, m))


# ---------------------------------------------------------------------------
# baby-step giant-steps
# ---------------------------------------------------------------------------

class OpCounter:
    """Mutable counter for group operations performed inside BSGS."""

    __slots__ = ("adds",)

    def __init__(self):
        self.adds = 0


def _scalar_mul_adds(n: int) -> int:
    """Logical group operations charged for Curve.scalar_mul(n, .), n > 0:
    the bit_length - 1 doublings and one add per set bit (the first onto
    infinity) of binary double-and-add.  A fixed charge, not a count of
    add_points calls: prime fields run the chain in Jacobian coordinates."""
    return n.bit_length() - 1 + n.bit_count()


# most additions that share one field inversion; prime fields only (in the log
# model an inversion is one table lookup, so blocks only add work, and
# Curve.add_many batches prime fields alone)
_BLOCK_CAP = 32


def _progression(curve: Curve, start: Point, step: Point, n: int, cap: int):
    """Yield start + i*step for i = 0, 1, ..., n-1, computing them lazily.

    After start, the terms come in blocks last + (step, 2*step, ..., b*step)
    that share one inversion (Curve.add_many), b doubling up to cap and to the
    terms left.  The multiples of step are the terms themselves when start is
    step; otherwise they are doubled alongside, costing b - 1 adds for the
    largest block b.  A block is computed only when the caller asks for its
    first term.
    """
    yield start
    if cap == 1:
        add = curve.add_points
        for _ in range(n - 1):
            start = add(start, step)
            yield start
        return
    multiples = [step]  # i*step for i = 1..len(multiples)
    last, done = start, 1
    while done < n:
        more = min(cap, n - done) - len(multiples)
        if 1 < done and more > 0:
            if start is step:
                multiples += block[:more]
            else:
                multiples += curve.add_many(multiples[-1], multiples[:more])
        block = curve.add_many(last, multiples[:n - done])
        yield from block
        last, done = block[-1], done + len(block)


def bsgs_annihilator(curve: Curve, pt: Point, ops: OpCounter | None = None) -> int:
    """Some m in the Hasse interval with m*P = infinity.

    Searches for t with t*P = (q+1)*P over |t| <= 2*sqrt(q) using baby steps
    j*P (keyed by the x-encoding, y disambiguating the sign) and giant steps
    of stride 2s-1, for O(q^(1/4)) group operations overall.

    Both walks are _progression()s, so in prime fields their adds come in
    blocks that share one field inversion; extension fields step one add at
    a time.  The points are scanned in the order of stepping one add at a
    time, so the same m is returned, and ops.adds counts the logical group
    operations of that stepping: the baby steps, the two scalar
    multiplications and the giant steps up to the match.  The adds really
    computed exceed it by the giant-step multiples and the rest of the block
    that holds the match: fewer than 2*_BLOCK_CAP per call.  Measured on
    random curves: +12% at q = 65537, +17% at 10^6, +2% at 10^12+39.
    """
    interval = hasse_interval(curve.spec.q)
    if pt.x is None:
        return interval.lo
    if ops is None:
        ops = OpCounter()
    tb = interval.trace_bound
    s = max(2, isqrt(tb) + 1)
    spec = curve.spec
    cap = _BLOCK_CAP if spec.k == 1 else 1

    # baby table: x-encoding of j*P -> list of (j, y-encoding)
    table: dict[int, list[tuple[int, int]]] = {}
    for j, jp in enumerate(_progression(curve, pt, pt, s - 1, cap), 1):
        if jp.x is None:
            # order of P divides j, so any multiple of j annihilates; the
            # interval is far wider than s, so one lands inside it
            ops.adds += j - 1
            return -(-interval.lo // j) * j
        table.setdefault(jp.x, []).append((j, jp.y))
    ops.adds += s - 2

    stride = 2 * s - 1
    c = -tb + s - 1
    # R = (q+1-c)*P, stepped down by stride*P while c - (s-1) <= tb
    r0 = curve.scalar_mul(spec.q + 1 - c, pt)
    step = curve.negate(curve.scalar_mul(stride, pt))
    ops.adds += _scalar_mul_adds(spec.q + 1 - c) + _scalar_mul_adds(stride)

    def accept(t: int) -> int | None:
        if abs(t) <= tb:
            return spec.q + 1 - t
        return None

    for r in _progression(curve, r0, step, 2 * tb // stride + 1, cap):
        if r.x is None:
            m = accept(c)
            if m is not None:
                return m
        else:
            hits = table.get(r.x)
            if hits:
                ry = r.y
                # -(x, y) = (x, -y - a1*x - a3): r = -j*P iff ry + yj + a1*x + a3 = 0
                shift = spec.add_enc(ry, spec.add_enc(spec.mul_enc(curve.a1, r.x), curve.a3))
                for j, yj in hits:
                    # r = (q+1-c-t')*P matched against +-j*P
                    if ry == yj:
                        m = accept(c + j)
                        if m is not None:
                            return m
                    if spec.add_enc(shift, yj) == 0:
                        m = accept(c - j)
                        if m is not None:
                            return m
        c += stride
        ops.adds += 1
    raise InternalInvariantError("BSGS found no annihilator in the Hasse interval")


def exact_order(curve: Curve, pt: Point, annihilator: int) -> int:
    """The exact order of P, given any multiple of it that kills P."""
    if annihilator < 1:
        raise ValueError("annihilator must be positive")
    if not curve.scalar_mul(annihilator, pt).is_infinity:
        raise ValueError("claimed annihilator does not kill the point")
    n = annihilator
    for ell in sorted(set(factorize(annihilator))):
        while n % ell == 0 and curve.scalar_mul(n // ell, pt).is_infinity:
            n //= ell
    return n


# ---------------------------------------------------------------------------
# congruence / trace logic
# ---------------------------------------------------------------------------

def crt_merge(c1: Congruence, c2: Congruence) -> Congruence:
    """The single congruence equivalent to both, modulus lcm(m1, m2)."""
    g, u, _ = ext_gcd(c1.m, c2.m)
    if (c2.a - c1.a) % g != 0:
        raise IncompatibleCongruence(f"{c1} and {c2} have no common solution")
    l = c1.m // g * c2.m
    step = (c2.a - c1.a) // g * u % (c2.m // g)
    return Congruence(a=(c1.a + c1.m * step) % l, m=l)


def trace_candidates(c: Congruence, q: int) -> list[int]:
    """All t = a (mod m) with |t| <= 2*sqrt(q), ascending."""
    tb = hasse_interval(q).trace_bound
    first = -tb + (c.a + tb) % c.m
    return list(range(first, tb + 1, c.m))


def unique_trace_candidate(c: Congruence, q: int) -> int | None:
    """The single admissible trace if the congruence pins it down, else None."""
    cands = trace_candidates(c, q)
    if len(cands) == 1:
        return cands[0]
    return None
