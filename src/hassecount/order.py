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
Cohen, A Course in Computational Algebraic Number Theory, 7.4).  Its giant
steps start at the admissible trace nearest 0 and walk outward on both
sides in turn, since the traces of random curves over a fixed field cluster
near 0 (Birch, J. London Math. Soc. 43, 1968), with a baby table sized for
that.

All interval arithmetic is integer-exact through isqrt; the square-field
cases attain |t| = 2*sqrt(q) exactly, so floating point would be off by one
precisely where the interesting supersingular curves live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from heapq import heapify, heappop, heappush
from math import gcd, isqrt

from .curve import Curve, Point, completed_add, completed_add_block, completed_pair_block, completed_sum_y
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


@cache
def hasse_interval(q: int) -> HasseInterval:
    """The interval guaranteed to contain #E for curves over F_q, kept per q
    (HasseInterval is frozen)."""
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

@dataclass(slots=True)
class Stats:
    """What a count did, recorded where a caller passes one to count_points
    or bsgs_annihilator: adds, the logical group operations of the BSGS
    searches (see bsgs_annihilator), and samples, one (side, point, order)
    per point count_points draws, side "E" or "E'" and point its (x, y), or
    None at infinity."""

    adds: int = 0
    samples: list = field(default_factory=list)


def _scalar_mul_adds(n: int) -> int:
    """Logical group operations charged for Curve.mul(n, x, y): for n != 0
    the bit_length - 1 doublings and one add per set bit (the first onto
    infinity) of binary double-and-add on |n|, and none for n = 0: a fixed
    charge, the same for the Jacobian and the affine chain, whichever
    affine model the curve steps on."""
    return n.bit_length() - 1 + n.bit_count() if n else 0


def _pair_block(c2: int, c4: int, p: int, xc, yc, sx: list, sy: list, ax: list, ay: list, xn, yn):
    """The x of the terms C + (ax[i], ay[i]) of a paired block around C =
    (xc, yc), its addends ax, ay being -S_h, ..., -S_1, infinity, S_1, ...,
    S_h, and the next centre C + N with its y: from completed_pair_block on
    S_1, ..., S_h = (sx, sy), or where it declines (an operand is infinity, a
    denominator vanishes) from one completed_add_block on C."""
    out = completed_pair_block(c2, p, xc, yc, sx, sy, xn, yn)
    if out is not None:
        return out
    bx, by = completed_add_block(c2, c4, p, xc, yc, [xn, *ax], [yn, *ay], 1)
    return bx[1:], bx[0], by[0]


# most additions that share one field inversion in a block of multiples, and
# twice the addends of a paired block of _BLOCK_CAP // 2 * 2 + 1 terms; odd
# prime fields only (elsewhere one add of Curve.affine_model per step: in the
# log model an inversion is one table lookup, so blocks only add work)
_BLOCK_CAP = 32

# the baby table holds s - 1 terms, s = isqrt(span // _BABY_SHARE) + 1 for
# the span + 1 admissible traces (see bsgs_annihilator)
_BABY_SHARE = 5


def bsgs_annihilator(
    curve: Curve, pt: Point, stats: Stats | None = None, trace: Congruence = Congruence(0, 1)
) -> int:
    """Some m in the Hasse interval with m*P = infinity.

    Searches for t with t*P = (q+1)*P over the traces t = a (mod M) with
    |t| <= 2*sqrt(q), where (a, M) is the trace congruence (by default every
    trace).  Writing t = t_min + M*u for u in [0, span], it is a baby-step
    giant-step search for u on Q = M*P: baby steps j*Q for j < s (keyed by
    x, y disambiguating the sign), s = isqrt(span // _BABY_SHARE) + 1, and
    giant terms R_c = (q+1 - t_min - M*c)*P, R_c = +-j*Q putting u at c +- j,
    so a term covers the window [c - (s-1), c + (s-1)].  O(sqrt(span))
    group operations: O(q^(1/4)) unrestricted, sqrt(M) times fewer under a
    modulus M.

    The giant terms are scanned from the centre outward: c0 = span // 2,
    the admissible trace nearest 0, then c0 + stride, c0 - stride, c0 +
    2*stride, c0 - 2*stride, ... with stride 2s - 1, a side ending once its
    window leaves [0, span].  The traces of random curves over a fixed F_q
    cluster near 0 by the semicircle law (Birch, J. London Math. Soc. 43,
    1968), so the walk meets the trace after about 0.42 of a side on
    average (E|cos theta| = 4/(3 pi) for the semicircle), not half the
    interval, and a baby table smaller than the uniform optimum sqrt(span /
    2) pays: of _BABY_SHARE = 4, 5 and 6, 5 gave the fastest counts at
    2^61-1 and tied with 6 at 10^12+39.

    Every returned m is verified: a giant term matched a baby step or
    infinity, or a baby step j*Q reached infinity (the order of P divides
    j*M; without a multiple of j*M in the interval the unrestricted search
    takes over).  A congruence the true trace does not satisfy can therefore
    only end in InternalInvariantError, never in a wrong m.  Where P has
    several annihilators in the interval the first matched is returned.

    P is mapped in once (Curve.to_model, on every field) and never back: Q,
    R_c0 and the giant step S = -stride*Q are Curve.mul on its bare (x, y),
    and a match is tested with the negation of the curve's affine model
    (Curve.affine_model; -y on the completed square).  Every field but the
    odd prime fields steps the model's add one term at a time (log
    coordinates in the odd fields with Zech tables), up and down in turn.
    Over odd prime fields the walks add on the completed square, one
    inversion per block, h = _BLOCK_CAP // 2 (a giant walk of at most h
    terms a side steps one add at a time, as elsewhere):
    - the baby terms Q, 2Q, ... come in blocks of multiples added to the
      last term (completed_add_block), doubling up to _BLOCK_CAP; once 2h
      are made, if 2h + 1 more fit, paired blocks (completed_pair_block) of
      the terms C - hQ, ..., C, ..., C + hQ on h + 1 denominators, each
      handing on the next centre C + N, N = (2h+1)*Q, made with the first
      centre (3h+1)*Q in one completed_add_block; the fewer than 2h + 1
      terms left in one completed_add_block around the next centre;
    - the giant walk makes S, ..., (g+1)*S the same way, g = min(h,
      isqrt(n)) for the n > h terms of the up side, and N = (2g+1)*S.  Its
      first block is the paired block around R_c0 on S_1, ..., S_g: the
      terms up_1, ..., up_g and down_1, ..., down_g at once, handing on
      R_c0 + N; one completed_add_block makes R_c0 - N.  Every later round
      is the paired block around the next centre of each side, the down
      side's on -S_i and -N, so its terms come in walk order.
    A block the kernel declines (an operand at infinity, a vanishing
    denominator) runs on completed_add_block.  No block returns slopes: a
    y is kept for the multiples, the centres and the baby tail, and a
    matched term's other y is recomputed from its centre and addend
    (completed_sum_y), one inversion.

    The terms are scanned in the order of stepping one add at a time, so
    that stepping returns the same m, and a Stats passed as stats gains in
    adds its logical group operations: the baby steps, the scalar
    multiplications (three, or two when M = 1) and one add per giant term
    scanned after R_c0 up to the match, the first down term costing one add
    from R_c0.  The adds really
    computed exceed it by the giant multiples and N, the rest of the round
    that holds the match and the next centres.  Measured on 40 seeded
    random curves, unrestricted: +27% at q = 65537, +18% at 10^6+3, +2.9%
    at 10^12+39; under the congruences count_points passes: none at 65537
    (its walks step one add at a time), +22% and +7.6%.
    """
    interval = hasse_interval(curve.spec.q)
    if pt.x is None:
        return interval.lo
    if stats is None:
        stats = Stats()
    tb = interval.trace_bound
    mod = trace.m
    t_min = -tb + (trace.a + tb) % mod
    span = (tb - t_min) // mod  # t = t_min + mod*u, u = 0..span
    if span < 0:
        raise InternalInvariantError(f"no trace in the Hasse interval is {trace.a} mod {mod}")
    s = max(2, isqrt(span // _BABY_SHARE) + 1)
    spec = curve.spec
    p = spec.p
    top = spec.q + 1 - t_min  # the candidate annihilator for u is top - mod*u
    x, y = px, py = curve.to_model(pt)  # P mapped in once, Q = mod*P
    if mod > 1:
        x, y = curve.mul(mod, px, py)
        stats.adds += _scalar_mul_adds(mod)

    if spec.k == 1 and p > 2:  # odd prime field: residue blocks, one inversion each
        c2, c4 = curve.completed_model()[:2]
        cap, h = _BLOCK_CAP, _BLOCK_CAP // 2
        add_block = partial(completed_add_block, c2, c4, p)
        pair_block = partial(_pair_block, c2, c4, p)
        sum_y = partial(completed_sum_y, c2, c4, p)
        add = partial(completed_add, c2, c4, p)  # one add: a step without a block

        def neg(x, y):
            return y if x is None else -y % p
    else:  # one add of the affine model per step
        cap, h = 1, 0
        add, model_neg = curve.affine_model()[1:3]

        def neg(x, y):
            return y if x is None else model_neg(x, y)
    w = 2 * h + 1  # the terms of a paired block

    def multiples(x, y, count: int) -> tuple:
        """x and y of S, 2*S, ..., count*S for S = (x, y), in blocks of
        multiples added to the last, at most doubling them, a block of one
        term by one add (every term where there are no blocks, cap = 1)."""
        mx, my = [x], [y]
        while len(mx) < count:
            b = min(len(mx), cap, count - len(mx))
            if b == 1:
                xk, yk = add(mx[-1], my[-1], x, y)
                mx.append(xk)
                my.append(yk)
                continue
            bx, by = add_block(mx[-1], my[-1], mx[:b], my[:b], b)
            mx += bx
            my += by
        return mx, my

    def progression(sx: list, sy: list) -> tuple:
        """The addends -S_g, ..., -S_1, infinity, S_1, ..., S_g of a paired
        block's terms around its centre, S_i = (sx[i-1], sy[i-1])."""
        return [*reversed(sx), None, *sx], [*map(neg, reversed(sx), reversed(sy)), None, *sy]

    # baby steps j*Q at index j of xs, ys; table: x -> the least j.  Another
    # j' < s with that x has j'*Q = -j*Q, so the order of Q divides j + j' <
    # 2s - 2 and each multiple of Q is infinity or +-i*Q with i < s: the first
    # giant term then matches through the least j, or no giant term ever does
    paired = h and s >= 2 * w  # room for a paired block after the first 2h terms
    mx, my = multiples(x, y, 2 * h if paired else s - 1)
    xs, ys = [None, *mx], [None, *my]
    bx = mx  # the last block; the walk stops at a term at infinity
    if paired and None not in bx:
        # paired blocks while a whole one fits, from N = w*Q and the first
        # centre (3h+1)*Q made from 2h*Q, their y None but the centre's; then
        # the rest around the next centre
        (xn, xc), (yn, yc) = add_block(xs[-1], ys[-1], [xs[1], xs[h + 1]], [ys[1], ys[h + 1]], 2)
        sx, sy = xs[1:h + 1], ys[1:h + 1]
        bax, bay = progression(sx, sy)
        while len(xs) + 2 * h < s and None not in bx:
            bx, xnext, ynext = pair_block(xc, yc, sx, sy, bax, bay, xn, yn)
            xs += bx
            ys += [None] * h + [yc] + [None] * h
            xc, yc = xnext, ynext
        if len(xs) < s and None not in bx:
            bx, by = add_block(xc, yc, bax[:s - len(xs)], bay[:s - len(xs)], w)
            xs += bx
            ys += by
    if None in xs[1:]:
        # the order of P divides j*mod for the first j with j*Q = infinity
        # (Q itself is infinity when j = 1), so any multiple of j*mod
        # annihilates.  With mod = 1 the interval is far wider than s, so one
        # lands inside it; otherwise there may be none, and the unrestricted
        # search answers
        j = xs.index(None, 1)
        stats.adds += j - 1
        n = j * mod
        first = -(-interval.lo // n) * n
        if first <= interval.hi:
            return first
        return bsgs_annihilator(curve, pt, stats)
    table = dict(zip(xs[:0:-1], range(s - 1, 0, -1)))  # the least j wins
    table[None] = 0  # a giant term at infinity is 0*Q
    stats.adds += s - 2

    def match(c: int, x, y) -> int | None:
        """u for the giant term R_c at x, a key of the table, if in [0, span]."""
        j = table[x]
        if not j:
            return c if 0 <= c <= span else None
        yj = ys[j]
        if yj is None:  # a paired baby term: from its centre k*Q
            k = j - j % w + h
            yj = sum_y(xs[k], ys[k], bax[j - k + h], bay[j - k + h], xs[j])
        if y == yj and 0 <= c + j <= span:
            return c + j
        if neg(x, y) == yj and 0 <= c - j <= span:
            return c - j
        return None

    stride = 2 * s - 1
    c0 = span // 2
    x, y = curve.mul(-stride, xs[1], ys[1])  # step S = -stride*Q: from R_c to R_(c+stride)
    x0, y0 = curve.mul(top - mod * c0, px, py)  # R_c0
    stats.adds += _scalar_mul_adds(top - mod * c0) + _scalar_mul_adds(stride)
    if x0 in table:
        u = match(c0, x0, y0)
        if u is not None:
            return top - mod * u
    # the terms after R_c0: up_k = R_(c0 + k*stride) and down_k = R_(c0 -
    # k*stride) for k = 1, ..., n[side] while the window meets [0, span],
    # scanned up_1, down_1, up_2, down_2, ...: up_k is the term of index k +
    # min(k - 1, n[1]), down_k of k + min(k, n[0]), and n[0] >= n[1]
    n = ((span - c0 + s - 1) // stride, (c0 + s - 1) // stride)

    def found(side: int, k: int, x, y) -> int | None:
        """The annihilator if up_k (side 0) or down_k (side 1) at (x, y)
        matches, its index charged to stats, else None."""
        u = match(c0 - k * stride if side else c0 + k * stride, x, y)
        if u is None:
            return None
        stats.adds += k + min(k, n[0]) if side else k + min(k - 1, n[1])
        return top - mod * u

    # the giant blocks' half width, 2g + 1 terms, where a side has more than
    # h terms: a shorter walk pays more for S, ..., (g+1)*S, N and R_c0 - N
    # than its blocks save
    g = min(h, isqrt(n[0])) if n[0] > h else 0
    if not g:  # one add per term, up_k then down_k
        xu, yu = xd, yd = x0, y0
        ny = neg(x, y)
        for k in range(1, n[0] + 1):
            xu, yu = add(xu, yu, x, y)
            if xu in table and (m := found(0, k, xu, yu)) is not None:
                return m
            if k <= n[1]:
                xd, yd = add(xd, yd, x, ny)
                if xd in table and (m := found(1, k, xd, yd)) is not None:
                    return m
        stats.adds += n[0] + n[1]
        raise InternalInvariantError("BSGS found no annihilator in the Hasse interval")
    mx, my = multiples(x, y, g + 1)
    (xn,), (yn,) = add_block(mx[g], my[g], mx[g - 1:g], my[g - 1:g], 1)  # N = (2g+1)*S
    sx = mx[:g]
    sy = my[:g], [*map(neg, sx, my[:g])]  # the y of S_1, ..., S_g up and of their negations down
    yn = yn, neg(xn, yn)  # the y of N up and of -N down
    ax = progression(sx, sy[0])[0]
    ay = [progression(sx, ys)[1] for ys in sy]
    # round 0 is the block around R_c0: up_1, ..., up_g and down_1, ..., down_g;
    # round r >= 1 the blocks around up_(r(2g+1)) and down_(r(2g+1)).  A
    # block: its terms' x, the base and the addends that made them
    bx, *up = pair_block(x0, y0, sx, sy[0], ax, ay[0], xn, yn[0])
    (xd,), (yd,) = add_block(x0, y0, [xn], [yn[1]], 1)
    centres = [up, (xd, yd)]  # R_c0 +- N
    blocks = [(bx[g + 1:], x0, y0, sx, sy[0]), (bx[g - 1::-1], x0, y0, sx, sy[1])]
    k = 1  # the round's first term on each side is the k-th
    while True:
        if not all(table.keys().isdisjoint(b[0]) for b in blocks):
            for i in range(len(blocks[0][0])):
                for side, (gx, xb, yb, axs, ays) in enumerate(blocks):
                    x = gx[i]
                    if k + i > n[side] or x not in table:
                        continue
                    y = None if x is None else sum_y(xb, yb, axs[i], ays[i], x)
                    if (m := found(side, k + i, x, y)) is not None:
                        return m
        k += len(blocks[0][0])
        if k > n[0]:
            break
        blocks = []
        for side in (0, 1) if k <= n[1] else (0,):
            xc, yc = centres[side]
            bx, *centres[side] = pair_block(xc, yc, sx, sy[side], ax, ay[side], xn, yn[side])
            blocks.append((bx, xc, yc, ax, ay[side]))
    stats.adds += n[0] + n[1]
    raise InternalInvariantError("BSGS found no annihilator in the Hasse interval")


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
    tree = []  # the leaves (l^e, l, e), from the ascending prime factors
    for ell in factorize(annihilator):
        if tree and tree[-1][1] == ell:
            power, _, e = tree[-1]
            tree[-1] = (power * ell, ell, e + 1)
        else:
            tree.append((ell, ell, 1))
    if not tree:
        tree.append((1, 1, 0))
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
    """The single admissible trace if the congruence pins it down, else None:
    the first t = a (mod m) with |t| <= 2*sqrt(q) when t + m lies beyond
    the bound, without listing the others."""
    tb = hasse_interval(q).trace_bound
    first = -tb + (c.a + tb) % c.m
    if first <= tb < first + c.m:
        return first
    return None
