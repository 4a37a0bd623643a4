"""Point orders via baby-step giant-steps in the Hasse interval, plus the
integer machinery (CRT merging, trace-candidate logic) the counting engine
builds on.

BSGS finds a multiple m of the order of P; exact_order then strips m down
to the order on a product tree over the prime powers of m (Sutherland,
Order computations in generic groups, MIT thesis 2007, ch. 7) weighted by
their bit lengths, Huffman's tree for the weights log2 l^e: at most
ceil(log2 w) * log2(m) + 2(w - 1) bits of scalar multiplication on its
nodes with w distinct primes in m, and about bitlen(L) + bitlen(m/L) at the
root when one prime power L exceeds m/L, not one full-length
multiplication per prime.

The search can be restricted to the traces of one congruence t = a (mod M):
it then walks multiples of Q = M*P over the about 4*sqrt(q)/M admissible
traces, which cuts its group operations by about sqrt(M) (Shanks-Mestre;
Cohen, A Course in Computational Algebraic Number Theory, 7.4).

All interval arithmetic is integer-exact through isqrt; the square-field
cases attain |t| = 2*sqrt(q) exactly, so floating point would be off by one
precisely where the interesting supersingular curves live.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from math import gcd, isqrt

from .curve import Curve, Point, completed_add_block, completed_pair_block
from .errors import IncompatibleCongruence, InternalInvariantError
from .integers import factorize

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
    """Logical group operations charged for Curve.mul(n, x, y): for n != 0
    the bit_length - 1 doublings and one add per set bit (the first onto
    infinity) of binary double-and-add on |n|, and none for n = 0: a fixed
    charge, the same for the Jacobian and the affine chain, whichever
    affine model the curve steps on."""
    return n.bit_length() - 1 + n.bit_count() if n else 0


def _neg_y(p: int, x: int, y: int) -> int:
    """The y of -(x, y) on a completed square over F_p."""
    return -y % p


def _pair_block(c2: int, c4: int, p: int, xc, yc, sx: list, sy: list, xn, yn) -> tuple:
    """completed_pair_block's terms and next centre, or where it declines
    (an operand is infinity, a denominator vanishes) the same from one
    completed_add_block on C: N, -S_h, ..., -S_1, infinity (C itself), S_1,
    ..., S_h."""
    out = completed_pair_block(c2, p, xc, yc, sx, sy, xn, yn)
    if out is not None:
        return out
    neg_sy = [y if y is None else -y % p for y in reversed(sy)]
    bx, by, bl = completed_add_block(
        c2, c4, p, xc, yc, [xn, *reversed(sx), None, *sx], [yn, *neg_sy, None, *sy], 1)
    return bx[1:], by[1:], bl[1:], bx[0], by[0]


# most additions that share one field inversion in a block of multiples, and
# twice the addends of a paired block of _BLOCK_CAP // 2 * 2 + 1 terms; odd
# prime fields only (elsewhere one add of Curve.affine_model per step: in the
# log model an inversion is one table lookup, so blocks only add work)
_BLOCK_CAP = 32


def bsgs_annihilator(
    curve: Curve, pt: Point, ops: OpCounter | None = None, trace: Congruence = Congruence(0, 1)
) -> int:
    """Some m in the Hasse interval with m*P = infinity.

    Searches for t with t*P = (q+1)*P over the traces t = a (mod M) with
    |t| <= 2*sqrt(q), where (a, M) is the trace congruence (by default every
    trace).  Writing t = t_min + M*u for u in [0, span], it is a baby-step
    giant-step search for u on Q = M*P: baby steps j*Q (keyed by x, y
    disambiguating the sign) and giant steps of stride 2s-1, s about
    sqrt(span/2), for O(sqrt(span)) group operations: O(q^(1/4))
    unrestricted, sqrt(M) times fewer under a modulus M.

    Every returned m is verified: a giant step matched a baby step or
    infinity, or a baby step j*Q reached infinity (the order of P divides
    j*M; without a multiple of j*M in the interval the unrestricted search
    takes over).  A congruence the true trace does not satisfy can therefore
    only end in InternalInvariantError, never in a wrong m.

    P is mapped in once (Curve.to_model, on every field) and never back: Q,
    the first giant term and the giant stride are Curve.mul on its bare
    (x, y), and a match is tested with the negation of the curve's affine
    model (Curve.affine_model; -y on the completed square).  Every field but
    the odd prime fields steps the model's add one term at a time (log
    coordinates in the odd fields with Zech tables).  Over odd prime fields
    both walks add on the completed square, one inversion per block:
    - first blocks of multiples (step, 2*step, ..., b*step) added to the
      last term (completed_add_block; the baby terms are their own
      multiples), b doubling up to _BLOCK_CAP and to the terms left;
    - once a walk holds 2h terms, h = _BLOCK_CAP // 2, and 2h + 1 more are
      left, paired blocks (completed_pair_block): the terms C - h*step, ...,
      C, ..., C + h*step on h + 1 denominators, and the next centre C +
      (2h+1)*step.  N = (2h+1)*step and the first centre come from one
      completed_add_block (the giant walk first adds (h+1)*step to its
      multiples); a block the kernel declines (an operand at infinity, a
      vanishing denominator) runs on completed_add_block;
    - the fewer than 2h + 1 terms left after the paired blocks on blocks of
      multiples again, at most h + 1 terms each in the giant walk.
    A y is computed for the addends, the centres and a block's last term;
    any other comes from its slope where a match needs it.  At q = 10^6+3
    every walk is too short to pair.  The points are scanned in the order of
    stepping one add at a time, so the same m is returned, and ops.adds
    counts the logical group operations of that stepping: the baby steps,
    the scalar multiplications (three, or two when M = 1) and the giant
    steps up to the match.  The adds really computed exceed it by the
    giant-step multiples, the rest of the block that holds the match and its
    next centre: fewer than 2*_BLOCK_CAP per call.  Measured on seeded random
    curves, unrestricted: +12% at q = 65537, +17% at 10^6+3, +1.7% at
    10^12+39; under the congruences count_points passes: +13%, +17% and
    +4.4%.
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
    p = spec.p
    top = spec.q + 1 - t_min  # the candidate annihilator for u is top - mod*u
    x, y = px, py = curve.to_model(pt)  # P mapped in once, Q = mod*P
    if mod > 1:
        x, y = curve.mul(mod, px, py)
        ops.adds += _scalar_mul_adds(mod)

    if spec.k == 1 and p > 2:  # odd prime field: residue blocks, one inversion each
        c2, c4 = curve.completed_model()[:2]
        cap, h = _BLOCK_CAP, _BLOCK_CAP // 2
        add_block = partial(completed_add_block, c2, c4, p)
        pair_block = partial(_pair_block, c2, c4, p)
        neg = partial(_neg_y, p)
    else:  # one add of the affine model per step
        cap, h = 1, 0
        add, neg = curve.affine_model()[1:3]

        def add_block(x1, y1, xs, ys, ny):
            x, y = add(x1, y1, xs[0], ys[0])
            return [x], [y], None
    w = 2 * h + 1  # the terms of a paired block

    # baby steps j*Q at index j of xs, ys; table: x -> the least j.  Another
    # j' < s with that x has j'*Q = -j*Q, so the order of Q divides j + j' <
    # 2s - 2 and each multiple of Q is infinity or +-i*Q with i < s: the first
    # giant step then matches through the least j, or no giant step ever does
    xs, ys = [None, x], [None, y]
    j = 1 if x is None else 0  # the first j with j*Q = infinity, if any
    paired = h and s >= 2 * w  # room for a paired block after the first 2h terms
    end = w if paired else s
    while True:
        while not j and len(xs) < end:  # add Q, 2*Q, ..., b*Q to the last term
            b = min(len(xs) - 1, cap, end - len(xs))
            bx, by, _ = add_block(xs[-1], ys[-1], xs[1:b + 1], ys[1:b + 1], b)
            if None in bx:
                j = len(xs) + bx.index(None)
            xs += bx
            ys += by
        if j or end == s:
            break
        # paired blocks while a whole one fits, from N = w*Q and the first
        # centre (3h+1)*Q made from 2h*Q; then the rest as above
        (xn, xc), (yn, yc), _ = add_block(xs[-1], ys[-1], [xs[1], xs[h + 1]], [ys[1], ys[h + 1]], 2)
        sx, sy, ls = xs[1:h + 1], ys[1:h + 1], [None] * w  # ls: the slopes of paired terms
        while not j and len(xs) + 2 * h < s:
            bx, by, bl, xc, yc = pair_block(xc, yc, sx, sy, xn, yn)
            if None in bx:
                j = len(xs) + bx.index(None)
            xs += bx
            ys += by
            ls += bl
        end = s
    if j:
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
    table = dict(zip(xs[:0:-1], range(s - 1, 0, -1)))  # the least j wins
    ops.adds += s - 2

    stride = 2 * s - 1
    c = s - 1
    # R = (top - mod*c)*P, stepped down by stride*Q while c - (s-1) <= span
    x, y = curve.mul(-stride, xs[1], ys[1])  # step = -stride*Q
    mx, my = [x], [y]  # i*step at index i - 1
    x, y = curve.mul(top - mod * c, px, py)
    gx, gy, lams = [x], [y], None  # a block of terms
    xb = yb = xn = None  # the block's base (the term before it, or its centre); N
    ops.adds += _scalar_mul_adds(top - mod * c) + _scalar_mul_adds(stride)
    n = span // stride + 1
    done = 0  # the terms before the block
    lo, hi = 2 * h if h else n, n - w  # blocks are paired while lo <= done <= hi
    while True:
        for i, x in enumerate(gx):  # c = s - 1 + (done + i)*stride
            if x is None:
                c = s - 1 + (done + i) * stride
                if 0 <= c <= span:
                    break
            elif x in table:
                y = gy[i]
                if y is None:
                    y = (lams[i] * (xb - x) - yb) % p
                j = table[x]
                yj = ys[j]
                if yj is None:  # a term of a paired baby block, centred on k*Q
                    k = j - j % w + h
                    yj = (ls[j] * (xs[k] - x) - ys[k]) % p
                # R = mod*(u - c)*P matched against +-j*Q
                c = s - 1 + (done + i) * stride
                if y == yj and 0 <= c + j <= span:
                    c += j
                    break
                if neg(x, y) == yj and 0 <= c - j <= span:
                    c -= j
                    break
        else:  # no match: step past the block and make the next
            done += len(gx)
            if done >= n:
                ops.adds += done
                raise InternalInvariantError("BSGS found no annihilator in the Hasse interval")
            xb, yb = gx[-1], gy[-1]
            if lo <= done <= hi:
                if xn is None:  # N = (h+1)*step + h*step and the centre xb + (h+1)*step
                    if len(mx) == h:  # mx holds h to 2h - 1 multiples here
                        bx, by, _ = add_block(mx[-1], my[-1], mx[:1], my[:1], 1)
                        mx += bx
                        my += by
                    (xn, xc), (yn, yc), _ = add_block(mx[h], my[h], [mx[h - 1], xb], [my[h - 1], yb], 2)
                    sx, sy = mx[:h], my[:h]
                xb, yb = xc, yc
                gx, gy, lams, xc, yc = pair_block(xc, yc, sx, sy, xn, yn)
                continue
            more = min(cap, n - done) - len(mx)
            if more > 0 and done > 1 and xn is None:
                bx, by, _ = add_block(mx[-1], my[-1], mx[:more], my[:more], more)
                mx += bx
                my += by
            gx, gy, lams = add_block(xb, yb, mx[:n - done], my[:n - done], 0)
            continue
        ops.adds += done + i
        return top - mod * c


def exact_order(curve: Curve, pt: Point, annihilator: int) -> int:
    """The exact order of P, given any multiple m of it that kills P.

    m is factored once into prime powers l^e, the leaves of a product tree
    (Sutherland, Order computations in generic groups, MIT thesis 2007,
    ch. 7) weighted by bit length: the two lightest subtrees are merged
    until one is left, ties going to the smaller product, that is the two
    smallest products, which is Huffman's tree for the weights log2 l^e
    (Huffman, Proc. IRE 40, 1952).  A node with the prime powers S holds a
    point Q with the order of (m / prod S)*P; the root holds P itself.  A
    node whose Q is infinity returns 1; otherwise it visits its lighter
    child A first, on (prod B)*Q, and returns the order n found there times
    the order found on B from n*Q.  n is the part of Q's order on the primes
    of A, so n*Q has the order of (prod A)*Q, from a multiplier that divides
    prod A.  A leaf l^e multiplies Q by l until it reaches infinity, at most
    e times.

    The first leaf reached, down the lighter children, holds Q = (m/l^e)*P,
    so it checks that m kills P (a node with Q = infinity shows it too).
    Once m kills P, every later leaf holds a Q whose order divides l^e, so
    it skips its last multiplication by l: a prime leaf multiplies nothing.
    A node v other than the root costs at most bitlen(prod v) <= log2(prod
    v) + 1 bits, so the work is at most Huffman's weighted path length, sum
    e*log2(l)*depth over the leaves, plus 2(w - 1) for w distinct primes,
    plus sum e*bitlen(l) at the leaves.  Huffman's length is at most that
    of any tree on the same leaves, and so at most ceil(log2 w) * log2(m),
    the length of the tree balanced by the number of primes.  A prime power
    L that exceeds m/L exceeds every product of the other leaves, so the
    merge leaves it at depth 1: the root multiplies by L and by at most m/L,
    and L's leaf, if prime, by nothing.  Trying m / l on P for each prime
    costs at least w + 1 full-length multiplications, the check of m*P
    included.  P is mapped in once (Curve.to_model) and every node
    multiplies bare (x, y) by Curve.mul.
    """
    if annihilator < 1:
        raise ValueError("annihilator must be positive")
    killed = False  # m*P = infinity is known
    mul = curve.mul

    def order(x, y, node: tuple) -> int:
        nonlocal killed
        if x is None:
            killed = True
            return 1
        _, a, b = node
        if type(a) is tuple:  # (prod S, A, B) with prod A < prod B
            n = order(*mul(b[0], x, y), a)
            return n * order(*mul(n, x, y), b)
        ell, e = a, b  # a leaf (l^e, l, e)
        for k in range(1, e + 1):
            if killed and k == e:
                return ell**e  # Q has the order of (m/l^e)*P, so l^e*Q = infinity
            x, y = mul(ell, x, y)
            if x is None:
                killed = True
                return ell**k
        raise ValueError("claimed annihilator does not kill the point")

    # m = 1 is one leaf that multiplies nothing; products of distinct
    # subtrees differ, so no comparison reaches a node's children
    tree = [(ell**e, ell, e) for ell, e in Counter(factorize(annihilator)).items()] or [(1, 1, 0)]
    heapify(tree)
    while len(tree) > 1:
        a = heappop(tree)
        b = heappop(tree)
        heappush(tree, (a[0] * b[0], a, b))
    return order(*curve.to_model(pt), tree[0])


# ---------------------------------------------------------------------------
# congruence / trace logic
# ---------------------------------------------------------------------------

def crt_merge(c1: Congruence, c2: Congruence) -> Congruence:
    """The single congruence equivalent to both, modulus lcm(m1, m2)."""
    g = gcd(c1.m, c2.m)
    if (c2.a - c1.a) % g != 0:
        raise IncompatibleCongruence(f"{c1} and {c2} have no common solution")
    l = c1.m // g * c2.m
    step = (c2.a - c1.a) // g * pow(c1.m // g, -1, c2.m // g) % (c2.m // g)
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
