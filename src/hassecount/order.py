"""Point orders via baby-step giant-steps in the Hasse interval, plus the
integer machinery (CRT merging, trace-candidate logic) the counting engine
builds on.

The search can be restricted to the traces of one congruence t = a (mod M):
it then walks multiples of Q = M*P over the about 4*sqrt(q)/M admissible
traces, which cuts its group operations by about sqrt(M) (Shanks-Mestre;
Cohen, A Course in Computational Algebraic Number Theory, 7.4).

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
    """Logical group operations charged for Curve.scalar_mul(n, .): for
    n != 0 the bit_length - 1 doublings and one add per set bit (the first
    onto infinity) of binary double-and-add on |n|, and none for n = 0.  A
    fixed charge, not a count of add_points calls: prime fields run the
    chain in Jacobian coordinates."""
    return n.bit_length() - 1 + n.bit_count() if n else 0


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


def bsgs_annihilator(
    curve: Curve, pt: Point, ops: OpCounter | None = None, trace: Congruence = Congruence(0, 1)
) -> int:
    """Some m in the Hasse interval with m*P = infinity.

    Searches for t with t*P = (q+1)*P over the traces t = a (mod M) with
    |t| <= 2*sqrt(q), where (a, M) is the trace congruence (by default every
    trace).  Writing t = t_min + M*u for u in [0, span], it is a baby-step
    giant-step search for u on Q = M*P: baby steps j*Q (keyed by the
    x-encoding, y disambiguating the sign) and giant steps of stride 2s-1,
    s about sqrt(span/2), for O(sqrt(span)) group operations: O(q^(1/4))
    unrestricted, sqrt(M) times fewer under a modulus M.

    Every returned m is verified: a giant step matched a baby step or
    infinity, or a baby step j*Q reached infinity (the order of P divides
    j*M; without a multiple of j*M in the interval the unrestricted search
    takes over).  A congruence the true trace does not satisfy can therefore
    only end in InternalInvariantError, never in a wrong m.

    Both walks are _progression()s, so in prime fields their adds come in
    blocks that share one field inversion; extension fields step one add at
    a time.  The points are scanned in the order of stepping one add at a
    time, so the same m is returned, and ops.adds counts the logical group
    operations of that stepping: the baby steps, the scalar multiplications
    (three, or two when M = 1) and the giant steps up to the match.  The adds
    really computed exceed it by the giant-step multiples and the rest of the
    block that holds the match: fewer than 2*_BLOCK_CAP per call.  Measured
    on random curves, unrestricted: +12% at q = 65537, +17% at 10^6, +2% at
    10^12+39; under the congruences count_points passes: +12%, +17% and +3%.
    """
    interval = hasse_interval(curve.spec.q)
    if pt.x is None:
        return interval.lo
    if ops is None:
        ops = OpCounter()
    tb = interval.trace_bound
    mod = trace.m
    t_min = -tb + (trace.a + tb) % mod
    span = (tb - t_min) // mod  # t = t_min + mod*u, u = 0..span
    if span < 0:
        raise InternalInvariantError(f"no trace in the Hasse interval is {trace.a} mod {mod}")
    s = max(2, isqrt(span // 2) + 1)
    spec = curve.spec
    cap = _BLOCK_CAP if spec.k == 1 else 1
    top = spec.q + 1 - t_min  # the candidate annihilator for u is top - mod*u
    base = pt  # Q
    if mod > 1:
        base = curve.scalar_mul(mod, pt)
        ops.adds += _scalar_mul_adds(mod)

    # baby table: x-encoding of j*Q -> list of (j, y-encoding)
    table: dict[int, list[tuple[int, int]]] = {}
    for j, jq in enumerate(_progression(curve, base, base, s - 1, cap), 1):
        if jq.x is None:
            # the order of P divides j*mod (Q itself is infinity when j = 1),
            # so any multiple of j*mod annihilates.  With mod = 1 the interval
            # is far wider than s, so one lands inside it; otherwise there may
            # be none, and the unrestricted search answers
            ops.adds += j - 1
            n = j * mod
            first = -(-interval.lo // n) * n
            if first <= interval.hi:
                return first
            return bsgs_annihilator(curve, pt, ops)
        table.setdefault(jq.x, []).append((j, jq.y))
    ops.adds += s - 2

    stride = 2 * s - 1
    c = s - 1
    # R = (top - mod*c)*P, stepped down by stride*Q while c - (s-1) <= span
    r0 = curve.scalar_mul(top - mod * c, pt)
    step = curve.negate(curve.scalar_mul(stride, base))
    ops.adds += _scalar_mul_adds(top - mod * c) + _scalar_mul_adds(stride)

    def accept(u: int) -> int | None:
        if 0 <= u <= span:
            return top - mod * u
        return None

    for r in _progression(curve, r0, step, span // stride + 1, cap):
        if r.x is None:
            m = accept(c)
            if m is not None:
                return m
        else:
            hits = table.get(r.x)
            if hits:
                ry = r.y
                # -(x, y) = (x, -y - a1*x - a3): r = -j*Q iff ry + yj + a1*x + a3 = 0
                shift = spec.add_enc(ry, spec.add_enc(spec.mul_enc(curve.a1, r.x), curve.a3))
                for j, yj in hits:
                    # r = mod*(u - c)*P matched against +-j*Q
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
