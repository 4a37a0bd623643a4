import math
import random
from collections import Counter
from math import isqrt, lcm

import pytest

from hassecount import curve as cv
from hassecount import finite_field as ff
from hassecount import order as od
from hassecount.counting import count_points
from hassecount.errors import IncompatibleCongruence, InternalInvariantError, SingularCurve
from hassecount.integers import divisors, factorize, prime_powers
from hassecount.sweep import sample_random_curve


# --- Hasse interval ---------------------------------------------------------------

def test_hasse_interval_frozen():
    h49 = od.hasse_interval(49)
    assert (h49.lo, h49.hi, h49.trace_bound) == (36, 64, 14)
    h2 = od.hasse_interval(2)
    assert (h2.lo, h2.hi) == (1, 5)
    # isqrt(4*229) = isqrt(916) = 30 since 30^2 = 900 <= 916 < 961
    h229 = od.hasse_interval(229)
    assert (h229.lo, h229.hi) == (200, 260)


def test_hasse_invariants_all_q():
    for q in prime_powers(1024):
        h = od.hasse_interval(q)
        assert h.lo + h.hi == 2 * (q + 1)
        assert h.hi - h.lo == 2 * h.trace_bound
        tb = h.trace_bound
        assert tb * tb <= 4 * q < (tb + 1) * (tb + 1)


def test_multiples_in_interval():
    h49 = od.hasse_interval(49)
    assert od.multiples_in_interval(6, h49) == [36, 42, 48, 54, 60]
    assert od.multiples_in_interval(8, h49) == [40, 48, 56, 64]
    h4 = od.hasse_interval(4)
    assert od.multiples_in_interval(1, h4) == list(range(1, 10))


# --- BSGS -------------------------------------------------------------------------

def test_bsgs_infinity_returns_lo():
    spec = ff.make_spec(5)
    e = cv.Curve(spec, 0, 0, 0, 1, 0)
    assert od.bsgs_annihilator(e, e.infinity()) == od.hasse_interval(5).lo


def test_bsgs_two_torsion_point():
    spec = ff.make_spec(5)
    e = cv.Curve(spec, 0, 0, 0, 1, 0)
    p = e.point(0, 0)
    m = od.bsgs_annihilator(e, p)
    assert m in od.hasse_interval(5) and m % 2 == 0
    assert od.exact_order(e, p, m) == 2


def test_bsgs_self_check_f1009():
    spec = ff.make_spec(1009)
    e = cv.Curve(spec, 0, 0, 0, spec.neg_enc(1), 0)  # y^2 = x^3 - x
    rng = random.Random(3)
    for _ in range(20):
        p = cv.random_point(e, rng)
        m = od.bsgs_annihilator(e, p)
        assert m in od.hasse_interval(1009)
        assert e.scalar_mul(m, p).is_infinity


@pytest.mark.parametrize("p", [65537, 1000003])
def test_bsgs_operation_scaling(p):
    spec = ff.make_spec(p)
    rng = random.Random(11)
    total = 0
    rounds = 10
    for _ in range(rounds):
        e = sample_random_curve(spec, rng)
        pt = cv.random_point(e, rng)
        ops = od.Stats()
        m = od.bsgs_annihilator(e, pt, ops)
        assert e.scalar_mul(m, pt).is_infinity
        total += ops.adds
    assert total / rounds <= 8 * p**0.25


# --- batched BSGS against one add at a time ----------------------------------------

def baby_size(span):
    """s: the baby steps j*Q are j < s over the span + 1 admissible traces."""
    return max(2, isqrt(span // od._BABY_SHARE) + 1)


def reference_bsgs(curve, pt, ops, trace=od.Congruence(0, 1)):
    """BSGS with one Curve.add_points per step over the traces t = a (mod M)
    of the congruence: the scan order and the logical op count that
    bsgs_annihilator must reproduce.  The giant terms R_u = (q+1 - t_min -
    M*u)*P start at u = c0 = span // 2 and step outward, up and down in
    turn, each side while its window [u - (s-1), u + (s-1)] meets [0, span]."""
    interval = od.hasse_interval(curve.spec.q)
    if pt.is_infinity:
        return interval.lo
    tb = interval.trace_bound
    mod = trace.m
    t_min = -tb + (trace.a + tb) % mod
    span = (tb - t_min) // mod  # t = t_min + mod*u, u = 0..span
    s = baby_size(span)
    spec = curve.spec
    base = pt
    if mod > 1:
        base = curve.scalar_mul(mod, pt)
        ops.adds += od._scalar_mul_adds(mod)
    table = {}
    jq = base
    for j in range(1, s):
        if jq.is_infinity:
            first = -(-interval.lo // (j * mod)) * j * mod
            if first <= interval.hi:
                return first
            return reference_bsgs(curve, pt, ops)
        table.setdefault(jq.x, []).append((j, jq.y))
        if j < s - 1:
            jq = curve.add_points(jq, base)
            ops.adds += 1
    stride = 2 * s - 1
    c0 = span // 2
    r0 = curve.scalar_mul(spec.q + 1 - t_min - mod * c0, pt)
    step = curve.negate(curve.scalar_mul(stride, base))  # from R_u to R_(u+stride)
    ops.adds += od._scalar_mul_adds(spec.q + 1 - t_min - mod * c0) + od._scalar_mul_adds(stride)

    def found(u, r):
        if r.is_infinity:
            return u if 0 <= u <= span else None
        neg_y = curve.negate(r).y
        for j, yj in table.get(r.x, ()):
            if r.y == yj and 0 <= u + j <= span:
                return u + j
            if neg_y == yj and 0 <= u - j <= span:
                return u - j
        return None

    sides = [[c0, r0, stride, step], [c0, r0, -stride, curve.negate(step)]]
    u = found(c0, r0)
    while u is None:
        alive = False
        for side in sides:
            c, r, dc, st = side
            if not 0 <= c + dc + s - 1 or c + dc - (s - 1) > span:
                continue
            alive = True
            side[0], side[1] = c + dc, curve.add_points(r, st)
            ops.adds += 1
            u = found(*side[:2])
            if u is not None:
                break
        if not alive:
            raise AssertionError("reference BSGS found no annihilator")
    return spec.q + 1 - t_min - mod * u


def curve_through(spec, rng, x, y):
    """A random nonsingular curve through the affine point (x, y): a1..a4 at
    random and a6 solved for, so no y-solving is needed (char 2 above 2^16)."""
    while True:
        a1, a2, a3, a4 = (rng.randrange(spec.q) for _ in range(4))
        add, mul = spec.add_enc, spec.mul_enc
        lhs = mul(y, add(add(y, mul(a1, x)), a3))
        rest = mul(add(mul(add(x, a2), x), a4), x)  # x^3 + a2 x^2 + a4 x
        try:
            e = cv.Curve(spec, a1, a2, a3, a4, spec.sub_enc(lhs, rest))
        except SingularCurve:
            continue
        return e, cv.Point(e, x, y)


def sample_points(q, n, seed):
    """n seeded (curve, point) pairs over F_q, each followed by its multiples
    of order d for every proper divisor d of its order with d < s, whose baby
    steps reach infinity, or d = 2 (2-torsion); below 2^20 also a point on
    the quadratic twist, which in odd characteristic is the twist-shaped
    y^2 = x^3 + a2 x^2 + a4 x + a6 that count_points searches half the time."""
    spec = ff.spec_for_q(q)
    rng = random.Random(seed)
    twist_rng = random.Random(seed + 1)
    s = baby_size(2 * od.hasse_interval(q).trace_bound)
    out = []
    for _ in range(n):
        e, pt = curve_through(spec, rng, rng.randrange(q), rng.randrange(q))
        out.append((e, pt))
        order = od.exact_order(e, pt, od.bsgs_annihilator(e, pt))
        for d in divisors(order)[1:-1]:
            if d < s or d == 2:
                out.append((e, e.scalar_mul(order // d, pt)))
        if q < 1 << 20:
            twist = cv.quadratic_twist(e)
            out.append((twist, cv.random_point(twist, twist_rng)))
    return out


PRIME_FIELDS = [
    (1009, 40),
    (65537, 15),
    (10**12 + 39, 4),
    (2, 5),  # characteristic 2
    (3, 5),  # characteristic 3
]
FIELDS = PRIME_FIELDS + [
    (3**7, 30),  # log tables
    (5**4, 30),
    (2**10, 30),  # log tables, characteristic 2
    (2**16, 10),
    (3**13, 3),  # polynomial model
    (2**21, 3),  # polynomial model, characteristic 2
]


@pytest.mark.parametrize(
    "q,n,cap", [(q, n, None) for q, n in FIELDS] + [(q, n, 3) for q, n in PRIME_FIELDS])
def test_bsgs_matches_one_add_at_a_time(q, n, cap, monkeypatch):
    """Same m and logical op count as the one-add reference, with the default
    block limit (None) and with small blocks of 3 in prime fields.  Every
    field walks bare coordinates of the curve's affine model (the completed
    square in odd characteristic, log coordinates on it in the odd fields
    with Zech tables, the long form in characteristic 2) and never calls
    add_points."""
    if cap is not None:
        monkeypatch.setattr(od, "_BLOCK_CAP", cap)
    cases = sample_points(q, n, seed=q % 1000 + 7)
    assert len(cases) > n  # some small-order points joined the panel
    if q % 2 and q < 1 << 20:
        assert any(e.a1 == e.a3 == 0 and e.a2 for e, _ in cases)  # twist-shaped
    for e, pt in cases:
        ops, ref_ops = od.Stats(), od.Stats()
        with monkeypatch.context() as mp:
            mp.setattr(cv.Curve, "add_points", lambda *a: pytest.fail("add_points in the BSGS"))
            m = od.bsgs_annihilator(e, pt, ops)
        assert m == reference_bsgs(e, pt, ref_ops)
        assert ops.adds == ref_ops.adds
        assert e.scalar_mul(m, pt).is_infinity


@pytest.mark.parametrize(
    "q,n,cap",
    [(q, n if q < 1 << 20 else 1, None) for q, n in FIELDS] + [(q, n, 3) for q, n in PRIME_FIELDS])
def test_restricted_bsgs_matches_one_add_at_a_time(q, n, cap, monkeypatch):
    """Under the congruences t = t_E (mod M), M in {2, 3, 4, 12}, and
    t = q+1 (mod |P|), the same m and logical op count as the one-add
    reference, and m is an annihilator in the Hasse interval.  One curve
    in the polynomial model, where an add takes about a millisecond."""
    if cap is not None:
        monkeypatch.setattr(od, "_BLOCK_CAP", cap)
    cases = sample_points(q, n, seed=q % 1000 + 7)
    interval = od.hasse_interval(q)
    traces = {}
    restricted = 0
    for e, pt in cases:
        if e not in traces:
            traces[e] = q + 1 - count_points(e, "auto", random.Random(0)).count
        t = traces[e]
        order = od.exact_order(e, pt, q + 1 - t)
        congruences = [od.Congruence(t % mod, mod) for mod in (2, 3, 4, 12)]
        congruences.append(od.Congruence((q + 1) % order, order))
        for cong in congruences:
            ops, ref_ops = od.Stats(), od.Stats()
            m = od.bsgs_annihilator(e, pt, ops, cong)
            assert m == reference_bsgs(e, pt, ref_ops, cong)
            assert ops.adds == ref_ops.adds
            assert m in interval and e.scalar_mul(m, pt).is_infinity
            restricted += cong.m > 1
    assert restricted > 4 * n


@pytest.mark.parametrize("q", [1009, 65537, 3**7, 31])
def test_bsgs_baby_x_collision(q):
    """Points of order N in [s, 2s-3] have baby steps j*Q = -j'*Q with
    j, j' < s and j + j' = N, so two baby steps share x and the table keeps
    the least j: the same m and logical op count as the one-add reference.
    31 is the least prime with s = 3, so N = 3 there."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q + 5)
    s = baby_size(2 * od.hasse_interval(q).trace_bound)
    found = 0
    while found < 3:
        e, pt = curve_through(spec, rng, rng.randrange(q), rng.randrange(q))
        n = od.exact_order(e, pt, od.bsgs_annihilator(e, pt))
        for d in divisors(n):
            if not s <= d <= 2 * s - 3:
                continue
            qt = e.scalar_mul(n // d, pt)
            baby_x = [e.scalar_mul(j, qt).x for j in range(1, s)]
            assert len(set(baby_x)) < len(baby_x)  # the collision is reached
            ops, ref_ops = od.Stats(), od.Stats()
            m = od.bsgs_annihilator(e, qt, ops)
            assert m == reference_bsgs(e, qt, ref_ops) and ops.adds == ref_ops.adds
            assert m % d == 0
            found += 1


def baby_pairing(s, h):
    """The centres of the baby walk's paired blocks and its last paired term,
    for s and h = _BLOCK_CAP // 2: the blocks follow the first 2h terms
    while a whole one of 2h + 1 fits below s."""
    w, made = 2 * h + 1, 2 * h
    while made + w < s:
        made += w
    return range(2 * h + 1 + h, made, w), made


def test_bsgs_paired_block_edge_cases(monkeypatch):
    """At 2^32+15 with the default _BLOCK_CAP, h = 16, the unrestricted baby
    walk is paired from 33*Q to 197*Q, centres 49*Q, 82*Q, ..., 181*Q, and
    ends in one block around the next centre 214*Q up to (s-1)*Q = 228*Q.
    Points Q of order d put three cases inside a paired block: j*Q =
    infinity (w <= d <= 197: the block is declined and completed_add_block
    finds j = d); an equal-x pair (d = 2k for a centre k*Q, so C - S_i = -(C
    + S_i)); a baby x-collision (s <= d and paired terms j*Q and (d - j)*Q
    share x).  Each gives the same m and logical op count as the one-add
    reference."""
    q = 2**32 + 15
    spec = ff.make_spec(q)
    h = od._BLOCK_CAP // 2
    w = 2 * h + 1
    s = baby_size(2 * od.hasse_interval(q).trace_bound)
    centres, last = baby_pairing(s, h)
    assert (s, centres[0], centres[-1], last) == (229, 49, 181, 197)
    cases = {
        "infinity": lambda d: w <= d <= last,
        "equal x": lambda d: d % 2 == 0 and d // 2 in centres,
        "collision": lambda d: s <= d and any(j != d - j for j in range(max(w, d - last), min(last, d - w) + 1)),
    }
    outs = []
    pair_block, mul = od.completed_pair_block, cv.Curve.mul

    def recording_pair(c2, p, xc, yc, xs, ys, xn, yn):
        out = pair_block(c2, p, xc, yc, xs, ys, xn, yn)
        outs.append(out)
        return out

    def recording_mul(curve, n, x, y):
        outs.append("mul")
        return mul(curve, n, x, y)

    rng = random.Random(26)
    found = {}
    for _ in range(400):
        e = sample_random_curve(spec, rng)
        n = count_points(e, "point_order", rng).count
        for name, wanted in cases.items():
            ds = [d for d in divisors(n) if wanted(d)]
            if name in found or not ds:
                continue
            qt = e.scalar_mul(n // ds[0], cv.random_point(e, rng))
            if od.exact_order(e, qt, ds[0]) == ds[0]:
                found[name] = e, qt, ds[0]
        if len(found) == len(cases):
            break
    assert set(found) == set(cases)
    monkeypatch.setattr(od, "completed_pair_block", recording_pair)
    monkeypatch.setattr(cv.Curve, "mul", recording_mul)
    for name, (e, qt, d) in found.items():
        outs.clear()
        ops, ref_ops = od.Stats(), od.Stats()
        m = od.bsgs_annihilator(e, qt, ops)
        baby = outs[:outs.index("mul")] if "mul" in outs else outs
        with monkeypatch.context() as mp:
            mp.setattr(cv.Curve, "mul", mul)
            assert m == reference_bsgs(e, qt, ref_ops) and ops.adds == ref_ops.adds, name
        assert m % d == 0
        if name == "infinity":
            assert baby[-1] is None and ops.adds == d - 1
        elif name == "equal x":
            assert any(out[0][h - i] == out[0][h + i] for out in baby for i in range(1, h + 1))
        else:
            xs = [x for out in baby for x in out[0]]
            assert None not in baby and len(set(xs)) < len(xs)


def test_bsgs_match_paths(monkeypatch):
    """At 2^32+15, unrestricted: matches on the down side and on the up
    side, and matches whose giant term and whose baby term are not the
    centre of their paired block, at each sign of their offset from it.
    Such a term's y is recomputed from its block's base and addend
    (completed_sum_y), and the recomputed y is the term's own.  Each search
    returns the m and logical op count of the one-add reference."""
    q = 2**32 + 15
    spec = ff.make_spec(q)
    h = od._BLOCK_CAP // 2
    tb = od.hasse_interval(q).trace_bound
    s, stride, c0, n_up, n_down, g = giant_shape(q, 2 * tb, od._BLOCK_CAP)
    gw = 2 * g + 1
    last = baby_pairing(s, h)[1]
    top = q + 1 + tb  # R_c = (top - c)*P
    muls = od._scalar_mul_adds(top - c0) + od._scalar_mul_adds(stride)
    recomputed = []
    sum_y = od.completed_sum_y

    def recording(*args):
        recomputed.append(sum_y(*args))
        return recomputed[-1]

    monkeypatch.setattr(od, "completed_sum_y", recording)
    rng = random.Random(31)
    found = set()
    for _ in range(80):
        e = sample_random_curve(spec, rng)
        pt = cv.random_point(e, rng)
        recomputed.clear()
        ops, ref_ops = od.Stats(), od.Stats()
        m = od.bsgs_annihilator(e, pt, ops)
        assert m == reference_bsgs(e, pt, ref_ops) and ops.adds == ref_ops.adds
        side, k = matched_term(ops.adds, s, n_up, n_down, muls)
        if k == 0 or od.exact_order(e, pt, m) < 4 * isqrt(q):
            continue
        found.add(("side", side))
        c = c0 - k * stride if side else c0 + k * stride
        r = (k + g) // gw  # the giant term's round, and its offset from the block's centre
        offset = k - r * gw if r else k
        assert recomputed[0] == e.to_completed(e.scalar_mul(top - c, pt))[1]
        found.add(("giant", offset > 0))
        j = abs(top - m - c)  # R_c = +-j*Q
        centre = j - j % (2 * h + 1) + h  # of j's block, if paired
        if 2 * h < j <= last and j != centre:
            assert recomputed[1] == e.to_completed(e.scalar_mul(j, pt))[1]
            found.add(("baby", j > centre))
        if len(found) == 6:
            break
    assert found == {("side", 0), ("side", 1), ("giant", True), ("giant", False), ("baby", True),
                     ("baby", False)}


def test_restricted_bsgs_small_order_outside_every_multiple():
    """A point of order 2 under a true congruence modulo 300 over F_1009: Q = 300*P
    is infinity, but no multiple of 300 lies in [947, 1073], so the unrestricted
    search answers, charged on top of the scalar multiplication."""
    spec = ff.make_spec(1009)
    e = cv.Curve(spec, 0, 0, 0, spec.neg_enc(1), 0)  # y^2 = x^3 - x
    t = 1010 - count_points(e, "exhaustive").count
    pt = e.point(0, 0)
    cong = od.Congruence(t % 300, 300)
    ops, plain = od.Stats(), od.Stats()
    m = od.bsgs_annihilator(e, pt, ops, cong)
    assert m == od.bsgs_annihilator(e, pt, plain) and m % 2 == 0
    assert ops.adds == od._scalar_mul_adds(300) + plain.adds
    ref_ops = od.Stats()
    assert reference_bsgs(e, pt, ref_ops, cong) == m and ref_ops.adds == ops.adds


@pytest.mark.parametrize("q", [1009, 65537, 10**12 + 39, 3**7])
def test_restricted_bsgs_false_congruence_raises(q):
    """On a point of order > 4 sqrt(q) exactly one trace annihilates, so a
    congruence that excludes the true trace leaves nothing to find."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    interval = od.hasse_interval(q)
    checked = 0
    while checked < 3:
        e = sample_random_curve(spec, rng)
        pt = cv.random_point(e, rng)
        t = q + 1 - count_points(e, "auto", random.Random(0)).count
        if od.exact_order(e, pt, q + 1 - t) <= 4 * isqrt(q):
            continue
        for mod in (2, 3, 12, interval.trace_bound):
            with pytest.raises(InternalInvariantError):
                od.bsgs_annihilator(e, pt, trace=od.Congruence((t + 1) % mod, mod))
        checked += 1
    with pytest.raises(InternalInvariantError):  # no trace in the interval at all
        od.bsgs_annihilator(e, pt, trace=od.Congruence(2 * interval.trace_bound + 1, 4 * q))


def test_bsgs_small_order_ends_in_baby_steps():
    spec = ff.make_spec(1009)
    e = cv.Curve(spec, 0, 0, 0, spec.neg_enc(1), 0)  # y^2 = x^3 - x, full 2-torsion
    pt = cv.random_point(e, random.Random(3))
    n = od.exact_order(e, pt, od.bsgs_annihilator(e, pt))
    small = [d for d in (2, 3, 4, 5, 6) if n % d == 0]
    assert small
    for d in small:
        ops = od.Stats()
        m = od.bsgs_annihilator(e, e.scalar_mul(n // d, pt), ops)
        assert m % d == 0 and m in od.hasse_interval(1009)
        assert ops.adds == d - 1  # baby steps P, ..., d*P = infinity


@pytest.mark.parametrize("p,rounds", [(65537, 10), (1000003, 10), (10**12 + 39, 3)])
def test_bsgs_real_adds_scaling(p, rounds, monkeypatch):
    """The adds really computed, counting each member of a completed_add_block
    once, the 2h terms and the next centre of a completed_pair_block that
    does not decline, and each Curve.mul(n, .) as its double-and-add chain,
    stay inside the op budget of criterion 9, and most come in blocks."""
    real = blocks = 0
    inside = False
    add_points, add_block, mul = cv.Curve.add_points, od.completed_add_block, cv.Curve.mul
    pair_block = od.completed_pair_block

    def counted_add(self, a, b):
        nonlocal real
        real += not inside
        return add_points(self, a, b)

    def counted_block(c2, c4, p, x1, y1, xs, ys, ny):
        nonlocal real, blocks
        real += len(xs)
        blocks += 1
        return add_block(c2, c4, p, x1, y1, xs, ys, ny)

    def counted_pair(c2, p, xc, yc, xs, ys, xn, yn):
        nonlocal real, blocks
        out = pair_block(c2, p, xc, yc, xs, ys, xn, yn)
        if out is not None:  # a declined block is counted by its completed_add_block
            real += 2 * len(xs) + 1
            blocks += 1
        return out

    def counted_mul(curve, n, x, y):
        nonlocal real, inside
        if inside:
            return mul(curve, n, x, y)
        real += od._scalar_mul_adds(n)
        inside = True
        try:
            return mul(curve, n, x, y)
        finally:
            inside = False

    monkeypatch.setattr(cv.Curve, "add_points", counted_add)
    monkeypatch.setattr(od, "completed_add_block", counted_block)
    monkeypatch.setattr(od, "completed_pair_block", counted_pair)
    monkeypatch.setattr(cv.Curve, "mul", counted_mul)
    spec = ff.make_spec(p)
    rng = random.Random(11)
    logical = 0
    for _ in range(rounds):
        e = sample_random_curve(spec, rng)
        pt = cv.random_point(e, rng)
        ops = od.Stats()
        od.bsgs_annihilator(e, pt, ops)
        logical += ops.adds
    assert logical <= real <= logical + rounds * 2 * od._BLOCK_CAP
    assert real / rounds <= 8 * p**0.25
    assert blocks * 4 < real  # one inversion per block


def check_block(e, last, members, ny):
    """completed_add_block(last, members) against add_points mapped to the
    completed square: every x, the y it promises (i < ny, the last sum, an
    infinity operand), None for every other y, and that y from
    completed_sum_y on the operands."""
    c2, c4 = e.completed_model()[:2]
    p = e.spec.p
    x1, y1 = e.to_completed(last)
    xs, ys = map(list, zip(*(e.to_completed(m) for m in members)))
    x3s, y3s = cv.completed_add_block(c2, c4, p, x1, y1, xs, ys, ny)
    assert len(x3s) == len(y3s) == len(members)
    for i, m in enumerate(members):
        x, y = e.to_completed(e.add_points(last, m))
        assert x3s[i] == x, (last, m)
        if x is None:
            continue
        if i < ny or i == len(members) - 1 or x1 is None or xs[i] is None:
            assert y3s[i] == y, (last, m)
        else:
            assert y3s[i] is None, (last, m)
        assert cv.completed_sum_y(c2, c4, p, x1, y1, xs[i], ys[i], x) == y, (last, m)
    return x3s


def check_paired(e, centre, addends, nn):
    """completed_pair_block(centre, addends, N) against add_points mapped to
    the completed square: the x of C - S_h, ..., C, ..., C + S_h, each y from
    completed_sum_y on C and +-S_i, and the next centre C + N with its y.
    It declines (None) exactly where an operand is infinity or shares the
    centre's x.  Returns whether it declined."""
    c2, c4 = e.completed_model()[:2]
    p = e.spec.p
    xc, yc = e.to_completed(centre)
    xs, ys = map(list, zip(*(e.to_completed(s) for s in addends)))
    xn, yn = e.to_completed(nn)
    out = cv.completed_pair_block(c2, p, xc, yc, xs, ys, xn, yn)
    if None in (xc, xn, *xs) or xc in (xn, *xs):
        assert out is None
        return True
    x3s, xnext, ynext = out
    h = len(addends)
    signed = [e.negate(s) for s in reversed(addends)] + [e.infinity()] + list(addends)
    assert len(x3s) == 2 * h + 1
    for i, a in enumerate(signed):
        x, y = e.to_completed(e.add_points(centre, a))
        assert x3s[i] == x, (centre, i)
        assert cv.completed_sum_y(c2, c4, p, xc, yc, *e.to_completed(a), x) == y, (centre, i)
    assert (xnext, ynext) == e.to_completed(e.add_points(centre, nn))
    assert cv.completed_pair_block(c2, p, xc, yc, xs, [-y % p for y in ys], xn, yn)[0] == x3s[::-1]
    return False


@pytest.mark.parametrize("q", [1009, 10**12 + 39])
def test_pair_block_matches_add_points(q):
    """The paired kernel on blocks as the walks make them, centre k*P,
    addends P, ..., h*P and N = (2h+1)*P for h = 1, 2, 5 and 16, against
    add_points.  At 1009 on every k for points of small order, so centres
    reach -S_i, S_i, +-N and infinity and N is infinity; at both on random
    k, on a 2-torsion centre, whose pairs C - S and C + S share x, and on
    infinity among the addends."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q + 26)
    declined = set()
    small = 0
    for _ in range(4):
        e, pt = curve_through(spec, rng, rng.randrange(q), rng.randrange(q))
        n = od.exact_order(e, pt, od.bsgs_annihilator(e, pt))
        for d in [n] + [d for d in divisors(n) if 2 < d < min(n, 100)]:
            base = e.scalar_mul(n // d, pt)
            small += d < 100
            for h in (1, 2, 5, 16):
                addends = [e.scalar_mul(i, base) for i in range(1, h + 1)]
                nn = e.scalar_mul(2 * h + 1, base)
                ks = range(d) if d < 100 else [rng.randrange(d) for _ in range(5)] + [
                    h, -h, 2 * h + 1, -1 - 2 * h, 0]
                for k in ks:
                    centre = e.scalar_mul(k, base)
                    if check_paired(e, centre, addends, nn):
                        declined.add("infinity" if centre.is_infinity or nn.is_infinity else "denominator")
                other = cv.random_point(e, rng)
                assert check_paired(e, other, addends[:1] + [e.infinity()] + addends[1:], nn)
    assert small or q > 10**4
    # y^2 + a1 xy = x^3 + a2 x^2 + a4 x has the point T = (0, 0) of order 2
    while True:
        try:
            e = cv.Curve(spec, rng.randrange(q), rng.randrange(q), 0, rng.randrange(q), 0)
            break
        except SingularCurve:
            continue
    t = e.point(0, 0)
    addends = [cv.random_point(e, rng) for _ in range(4)]
    assert not check_paired(e, t, addends, cv.random_point(e, rng))
    assert e.to_completed(e.add_points(t, addends[0]))[0] == e.to_completed(
        e.add_points(t, e.negate(addends[0])))[0]
    assert declined == {"infinity", "denominator"}


@pytest.mark.parametrize("cap", [1, 2, 3, 32])
@pytest.mark.parametrize("p", [3, 5, 7, 1009, 10**12 + 39])
def test_short_add_block_matches_add_points(p, cap):
    """The residue block primitive against add_points, on blocks k*P + (P, 2P,
    ..., cap*P) as the walks make them with _BLOCK_CAP = cap, and on the
    exceptional operands: doubling (last = k*P), last = -k*P (infinity),
    2-torsion (y' = 0, whose double is infinity) and infinity multiples and
    last terms."""
    spec = ff.make_spec(p)
    rng = random.Random(p * 100 + cap)
    seen = set()
    for _ in range(4):
        e, pt = curve_through(spec, rng, rng.randrange(p), rng.randrange(p))
        n = od.exact_order(e, pt, od.bsgs_annihilator(e, pt))
        members = [e.scalar_mul(i, pt) for i in range(1, cap + 1)]
        for k in (0, 1, cap // 2, cap, n - cap, n - 1, rng.randrange(n)):
            last = e.scalar_mul(k, pt)
            for ny in (0, cap // 2, cap):
                x3s = check_block(e, last, members, ny)
            seen.update(name for name, hit in (
                ("doubling", 0 < k % n <= cap), ("infinity sum", None in x3s),
                ("infinity last", k % n == 0)) if hit)
    # y^2 + a1 xy = x^3 + a2 x^2 + a4 x has the point T = (0, 0) of order 2
    while True:
        try:
            e = cv.Curve(spec, rng.randrange(p), rng.randrange(p), 0, rng.randrange(p), 0)
            break
        except SingularCurve:
            continue
    t = e.point(0, 0)
    assert e.to_completed(t)[1] == 0 and e.add_points(t, t).is_infinity
    other = cv.random_point(e, rng)
    for last in (t, other, e.infinity()):
        check_block(e, last, [t, e.infinity(), other, t][:max(2, cap)], 1)
    assert check_block(e, t, [t], 0) == [None]
    assert seen == {"doubling", "infinity sum", "infinity last"}


@pytest.mark.parametrize("q", [1009, 10**12 + 39])
def test_add_many_matches_pairwise(q):
    """completed_add_block adds many points to one base with one inversion: on
    operands in no progression (infinity, the base, its negative, repeats)
    each sum matches add_points, and an empty block makes nothing."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q + 1)
    for _ in range(3):
        e, base = curve_through(spec, rng, rng.randrange(q), rng.randrange(q))
        others = [e.scalar_mul(k, base) for k in (2, 3, 5, 7, 11)]
        pts = [others[0], e.infinity(), base, e.negate(base), others[1], base,
               others[2], e.infinity(), e.negate(others[3]), others[4]]
        for b in (base, e.infinity(), others[1]):
            for ny in (0, 4, len(pts)):
                check_block(e, b, pts, ny)
        x1, y1 = e.to_completed(base)
        c2, c4 = e.completed_model()[:2]
        assert cv.completed_add_block(c2, c4, q, x1, y1, [], [], 0) == ([], [])
        assert check_block(e, base, [base, e.negate(base)], 2)[1] is None


def giant_shape(q, span, cap):
    """(s, stride, c0, n_up, n_down, g) of the unrestricted walks over F_q."""
    s = baby_size(span)
    stride, c0 = 2 * s - 1, span // 2
    n_up, n_down = (span - c0 + s - 1) // stride, (c0 + s - 1) // stride
    return s, stride, c0, n_up, n_down, min(cap // 2, isqrt(n_up)) if n_up > cap // 2 else 0


def matched_term(ops, s, n_up, n_down, muls):
    """(side, k) of the giant term an unrestricted search matched, from its
    logical op count and the charge of its two scalar multiplications: (0,
    0) for R_c0, (0, k) for up_k and (1, k) for down_k."""
    index = ops - (s - 2) - muls
    if index == 0:
        return 0, 0
    for k in range(1, n_up + 1):
        if k + min(k - 1, n_down) == index:
            return 0, k
        if k <= n_down and k + min(k, n_up) == index:
            return 1, k
    raise AssertionError(index)


@pytest.mark.parametrize("cap", [1, 2, 5, 6, 8])
def test_progression_terms_and_block_sizes(cap, monkeypatch):
    """The blocks the walks make on F_65537 with _BLOCK_CAP = cap, h = cap //
    2 and w = 2h + 1.  The baby terms are Q+Q, ..., (s-1)*Q in turn: blocks
    of multiples of 1, 2, 4, ... up to cap and the terms left, to 2h terms
    when a paired block fits after them; then N = w*Q and the first centre
    (3h+1)*Q from 2h*Q in one block, paired blocks of w terms while one
    fits, each centred on its (h+1)-th term, and the rest in one block
    around the next centre (cap = 6).  The giant walk: Curve.mul makes the
    step S and R_c0; with g = min(h, isqrt(n_up)), blocks of multiples make
    S, ..., (g+1)*S and one more N = (2g+1)*S; round 0 is the paired block
    around R_c0 on S_1, ..., S_g, down_g, ..., down_1, R_c0, up_1, ..., up_g,
    handing on R_c0 + N, and one add makes R_c0 - N; round r >= 1 is the
    paired block around up_(r(2g+1)), then the one around down_(r(2g+1)) on
    the negated addends, so its terms come in walk order, each handing on
    the centre N further out.  The last round holds the match.  With cap =
    1 no block is paired: one add per term, up and down in turn, each by
    completed_add on the integers, recorded as a block of one term."""
    q = 65537
    spec = ff.make_spec(q)
    monkeypatch.setattr(od, "_BLOCK_CAP", cap)
    h = cap // 2
    w = 2 * h + 1
    calls = []
    add_block, pair_block, mul = od.completed_add_block, od.completed_pair_block, cv.Curve.mul
    add_one = od.completed_add

    def recording_add(c2, c4, p, x1, y1, xs, ys, ny):
        out = add_block(c2, c4, p, x1, y1, xs, ys, ny)
        calls.append(("add", ny, len(xs), out))
        return out

    def recording_add_one(c2, c4, p, x1, y1, x2, y2):
        x3, y3 = add_one(c2, c4, p, x1, y1, x2, y2)
        calls.append(("add", 1, 1, ([x3], [y3])))
        return x3, y3

    def recording_pair(c2, p, xc, yc, xs, ys, xn, yn):
        out = pair_block(c2, p, xc, yc, xs, ys, xn, yn)
        calls.append(("pair", xc, 2 * len(xs) + 1, out))
        return out

    def recording_mul(curve, n, x, y):
        calls.append(("mul", n, None, None))
        return mul(curve, n, x, y)

    monkeypatch.setattr(od, "completed_add_block", recording_add)
    monkeypatch.setattr(od, "completed_add", recording_add_one)
    monkeypatch.setattr(od, "completed_pair_block", recording_pair)
    monkeypatch.setattr(cv.Curve, "mul", recording_mul)
    tb = od.hasse_interval(q).trace_bound
    span = 2 * tb
    s, stride, c0, n_up, n_down, g = giant_shape(q, span, cap)
    gw = 2 * g + 1
    top = q + 1 + tb  # R_c = (top - c)*P
    muls = od._scalar_mul_adds(top - c0) + od._scalar_mul_adds(stride)

    def doubling(count):
        """The sizes of the blocks of multiples that make S, ..., count*S."""
        sizes, made = [], 1
        while made < count:
            sizes.append(min(made, cap, count - made))
            made += sizes[-1]
        return sizes

    paired = h and s >= 2 * w
    baby_blocks = [("add", b) for b in doubling(2 * h if paired else s - 1)]
    if paired:
        baby_blocks.append(("add", 2))  # N and the first centre
        made = 2 * h
        while made + w < s:
            baby_blocks.append(("pair", w))
            made += w
        if made < s - 1:
            baby_blocks.append(("add", s - 1 - made))
    assert cap != 6 or baby_blocks[-1] == ("add", 1)  # a baby tail around the next centre
    rng = random.Random(cap)
    seen = set()
    for _ in range(8):
        e = sample_random_curve(spec, rng)
        pt = cv.random_point(e, rng)
        calls.clear()
        ops = od.Stats()
        m = od.bsgs_annihilator(e, pt, ops)
        walk = []
        for call in calls:  # a declined paired block runs on the next add block
            if walk and walk[-1][0] == "pair" and walk[-1][3] is None:
                assert call[1:3] == (1, walk[-1][2] + 1)
                bx, by = call[3]
                call = ("pair", walk[-1][1], walk[-1][2], (bx[1:], bx[0], by[0]))
                walk.pop()
            walk.append(call)
        if od.exact_order(e, pt, m) < s:
            continue  # the baby walk ends at infinity

        def x_of(j, base=pt):
            return e.to_completed(e.scalar_mul(j, base))[0]

        first_mul = next(i for i, call in enumerate(walk) if call[0] == "mul")
        baby = walk[:first_mul]
        assert [(kind, size) for kind, _, size, _ in baby] == baby_blocks
        assert all(ny >= size for kind, ny, size, _ in baby if kind == "add")
        terms = []
        for i, (kind, _, size, out) in enumerate(baby):
            if paired and i == len(doubling(2 * h)):  # N and the first centre
                assert out[0] == [x_of(w), x_of(3 * h + 1)]
                continue
            if kind == "pair":  # its centre is its (h+1)-th term, and it hands on the next
                assert out[0][h] == x_of(len(terms) + 2 + h) and out[1] == x_of(len(terms) + 2 + h + w)
            terms += out[0]
        assert terms == [x_of(j) for j in range(2, s)]

        def term(side, k):
            return x_of(top - (c0 - k * stride if side else c0 + k * stride))

        assert [n for _, n, _, _ in walk[first_mul:first_mul + 2]] == [-stride, top - c0]
        giant = walk[first_mul + 2:]
        side, k = matched_term(ops.adds, s, n_up, n_down, muls)
        if k == 0:
            assert giant == []  # R_c0 matched
            continue
        if not g:  # one add per term after R_c0, up and down in turn
            order = [(sd, kk) for kk in range(1, n_up + 1) for sd in (0, 1) if kk <= (n_up, n_down)[sd]]
            order = order[:order.index((side, k)) + 1]
            assert [(kind, size) for kind, _, size, _ in giant] == [("add", 1)] * len(order)
            assert [out[0][0] for _, _, _, out in giant] == [term(*t) for t in order]
            seen.add("add")
            continue
        grow = [("add", b) for b in doubling(g + 1)]
        r = (k + g) // gw  # the round of the match
        rounds = [(rr, sd) for rr in range(1, r + 1) for sd in (0, 1) if not sd or rr * gw - g <= n_down]
        kinds = [(kind, size) for kind, _, size, _ in giant]
        assert kinds == grow + [("add", 1), ("pair", gw), ("add", 1)] + [("pair", gw)] * len(rounds)
        nn, round0, down0 = (out for _, _, _, out in giant[len(grow):len(grow) + 3])
        assert nn[0] == [x_of(gw, e.negate(e.scalar_mul(stride, pt)))]
        assert round0[0] == [term(1, i) for i in range(g, 0, -1)] + [term(0, 0)] + [
            term(0, i) for i in range(1, g + 1)]
        assert round0[1] == term(0, gw) and down0[0] == [term(1, gw)]
        for (rr, sd), (_, centre, _, (bx, xnext, _)) in zip(rounds, giant[len(grow) + 3:]):
            assert centre == term(sd, rr * gw)
            assert bx == [term(sd, i) for i in range(rr * gw - g, rr * gw + g + 1)]
            assert xnext == term(sd, (rr + 1) * gw)
            seen.add(("round", sd))
        seen.update(kind for kind, _ in kinds)
    assert seen >= ({"add"} if cap == 1 else {"add", "pair", ("round", 0), ("round", 1)})


# --- exact order ------------------------------------------------------------------

def test_exact_order_examples():
    spec = ff.make_spec(5)
    e = cv.Curve(spec, 0, 0, 0, 1, 0)
    assert od.exact_order(e, e.infinity(), 7) == 1
    assert od.exact_order(e, e.point(0, 0), 8) == 2
    with pytest.raises(ValueError):
        od.exact_order(e, e.point(0, 0), 3)  # 3 does not kill a 2-torsion point


def test_exact_order_table1_q3():
    spec = ff.make_spec(3)
    e = cv.Curve(spec, 0, 0, 0, 2, 0)
    orders = set()
    lam = 1
    for p in cv.enumerate_points(e):
        o = od.exact_order(e, p, 4)
        orders.add(o)
        lam = lcm(lam, o)
    assert orders == {1, 2} and lam == 2


@pytest.mark.parametrize("q", [5, 7, 9, 11, 16, 23, 25, 27, 32, 49])
def test_exact_order_vs_brute_force(q):
    spec = ff.spec_for_q(q)
    rng = random.Random(q)
    for _ in range(3):
        e = sample_random_curve(spec, rng)
        pts = cv.enumerate_points(e)
        n = len(pts)
        for p in pts:
            fast = od.exact_order(e, p, n)
            acc = e.infinity()
            brute = None
            for i in range(1, n + 1):
                acc = e.add_points(acc, p)
                if acc.is_infinity:
                    brute = i
                    break
            assert fast == brute
            # minimality certificate
            assert e.scalar_mul(fast, p).is_infinity
            for ell in set(factorize(fast)):
                assert not e.scalar_mul(fast // ell, p).is_infinity


def brute_order(e, p):
    acc, n = p, 1
    while not acc.is_infinity:
        acc = e.add_points(acc, p)
        n += 1
    return n


def test_exact_order_of_one():
    """m = 1 has no prime powers: it is the order of infinity and kills no
    other point."""
    spec = ff.make_spec(5)
    e = cv.Curve(spec, 0, 0, 0, 1, 0)
    assert od.exact_order(e, e.infinity(), 1) == 1
    with pytest.raises(ValueError, match="^claimed annihilator does not kill the point$"):
        od.exact_order(e, e.point(0, 0), 1)


@pytest.mark.parametrize("q", [1009, 243])
def test_exact_order_tree_many_primes_and_high_powers(q):
    """Multiples of the true order with four to seven distinct primes, and
    with prime powers l^e, e >= 3, in both scalar-multiplication chains."""
    spec = ff.spec_for_q(q)
    rng = random.Random(q + 7)
    extras = [2 * 3 * 5 * 7, 3**4 * 11 * 13 * 17, 2**5 * 3**3 * 5**3 * 7 * 19 * 23, 29**3, 1]
    for _ in range(6):
        e = sample_random_curve(spec, rng)
        for _ in range(4):
            p = cv.random_point(e, rng)
            n = brute_order(e, p)
            for c in extras:
                assert od.exact_order(e, p, n * c) == n


def test_exact_order_bad_annihilators():
    """A multiple of the order missing one of its primes, and one with the
    exponent of a prime one too small, both raise the same error, however
    many other primes the claimed annihilator carries."""
    spec = ff.make_spec(1009)
    rng = random.Random(1)
    seen = set()
    for _ in range(40):
        e = sample_random_curve(spec, rng)
        p = cv.random_point(e, rng)
        n = brute_order(e, p)
        f = factorize(n)
        for ell in set(f):
            kind = "exponent" if f.count(ell) > 1 else "missing"
            for c in (1, 3 * 5 * 7 * 11 * 13, 2**4 * 17**3):
                m = n // ell * c
                if m % n:
                    seen.add(kind)
                    with pytest.raises(ValueError, match="^claimed annihilator does not kill the point$"):
                        od.exact_order(e, p, m)
    assert seen == {"exponent", "missing"}


def balanced_split_order(e, x, y, m):
    """The order of (x, y) on the product tree balanced by the number of
    primes, which the bit-weighted tree replaced: the prime powers of m in
    ascending order, split into halves at every node."""
    killed = False

    def order(x, y, s):
        nonlocal killed
        if x is None:
            killed = True
            return 1
        if len(s) > 1:
            a, b = s[:len(s) // 2], s[len(s) // 2:]
            return (order(*e.mul(math.prod(ell**k for ell, k in b), x, y), a)
                    * order(*e.mul(math.prod(ell**k for ell, k in a), x, y), b))
        (ell, k), = s
        for i in range(1, k + 1):
            if killed and i == k:
                return ell**k
            x, y = e.mul(ell, x, y)
            if x is None:
                killed = True
                return ell**i
        raise ValueError("claimed annihilator does not kill the point")

    return order(x, y, sorted(Counter(factorize(m)).items()))


def test_exact_order_work_bound(monkeypatch):
    """Bits of scalar multiplication, counted by wrapping Curve.mul.

    For m with w distinct primes l^e they stay within (ceil(log2 w) + 1) *
    bitlen(m) + sum e*bitlen(l), which one full-length multiplication per
    prime (m / l tried on P) exceeds.  When the largest prime power L of m
    exceeds m/L, the weighted tree leaves L at depth 1, so they stay within
    bitlen(L) + (ceil(log2 w) + 1) * bitlen(m/L), plus the multiplications
    of the other leaves and all but the last of L's: here m is a count with
    a prime factor above 2^32 times a few small primes, and the tree
    balanced by the number of primes, which pays bitlen(L) on every level,
    exceeds that bound on the same m and point."""
    spec = ff.make_spec(10**12 + 39)
    rng = random.Random(20)
    bits = []
    inner = cv.Curve.mul

    def counting_mul(self, n, x, y):
        bits.append(abs(n).bit_length())
        return inner(self, n, x, y)

    monkeypatch.setattr(cv.Curve, "mul", counting_mul)
    for _ in range(8):
        e = sample_random_curve(spec, rng)
        n = count_points(e, "point_order", random.Random(0)).count
        for c in (1, 2 * 3 * 5 * 7, 11**3 * 13):
            m = n * c
            f = factorize(m)
            w = len(set(f))
            bound = ((w - 1).bit_length() + 1) * m.bit_length() + sum(ell.bit_length() for ell in f)
            p = cv.random_point(e, rng)
            bits.clear()
            order = od.exact_order(e, p, m)
            assert 0 < sum(bits) <= bound, (m, bits, bound)
            assert n % order == 0 and inner(e, order, *e.to_model(p)) == (None, None)
    curves = 0
    while curves < 6:
        e = sample_random_curve(spec, rng)
        n = count_points(e, "point_order", random.Random(0)).count
        if factorize(n)[-1] < 1 << 32:
            continue
        curves += 1
        for c in (2 * 3 * 5, 2 * 3 * 5 * 7):
            m = n * c
            (ell, k), *rest = sorted(Counter(factorize(m)).items(), key=lambda lk: -lk[0] ** lk[1])
            big = ell**k
            assert big > m // big
            w = 1 + len(rest)
            bound = (big.bit_length() + ((w - 1).bit_length() + 1) * (m // big).bit_length()
                     + (k - 1) * ell.bit_length() + sum(j * r.bit_length() for r, j in rest))
            p = cv.random_point(e, rng)
            bits.clear()
            order = od.exact_order(e, p, m)
            assert sum(bits) <= bound, (m, bits, bound)
            bits.clear()
            assert balanced_split_order(e, *e.to_model(p), m) == order
            assert sum(bits) > bound, (m, bits, bound)


# --- congruences ------------------------------------------------------------------

def test_crt_examples():
    assert od.crt_merge(od.Congruence(0, 1), od.Congruence(5, 7)) == od.Congruence(5, 7)
    assert od.crt_merge(od.Congruence(1, 2), od.Congruence(2, 3)) == od.Congruence(5, 6)
    merged = od.crt_merge(od.Congruence(2, 6), od.Congruence(6, 8))
    assert merged == od.Congruence(14, 24)
    # brute-scan oracle over a full period
    sols = [x for x in range(24) if x % 6 == 2 and x % 8 == 6]
    assert sols == [14]


def test_crt_incompatible():
    with pytest.raises(IncompatibleCongruence):
        od.crt_merge(od.Congruence(0, 4), od.Congruence(1, 2))


def test_crt_random_property():
    rng = random.Random(17)
    for _ in range(500):
        m1, m2 = rng.randrange(1, 60), rng.randrange(1, 60)
        x = rng.randrange(5000)
        out = od.crt_merge(od.Congruence(x % m1, m1), od.Congruence(x % m2, m2))
        assert out.m == lcm(m1, m2)
        assert out.a % m1 == x % m1 and out.a % m2 == x % m2


def test_congruence_validation():
    with pytest.raises(ValueError):
        od.Congruence(3, 2)
    with pytest.raises(ValueError):
        od.Congruence(0, 0)


# --- trace candidates -------------------------------------------------------------

def test_unique_trace_q49_ambiguity():
    c = od.Congruence(14, 24)
    assert od.trace_candidates(c, 49) == [-10, 14]
    assert od.unique_trace_candidate(c, 49) is None


def test_unique_trace_wide_modulus():
    assert od.unique_trace_candidate(od.Congruence(5, 1000), 229) == 5


def test_unique_trace_q3():
    c = od.Congruence(0, 2)
    assert od.trace_candidates(c, 3) == [-2, 0, 2]
    assert od.unique_trace_candidate(c, 3) is None


def test_unique_trace_candidate_agrees_with_the_candidate_list():
    """Every residue of every modulus m <= 60 over every field up to 1024."""
    for q in prime_powers(1024):
        for m in range(1, 61):
            for a in range(m):
                c = od.Congruence(a, m)
                cands = od.trace_candidates(c, q)
                assert od.unique_trace_candidate(c, q) == (cands[0] if len(cands) == 1 else None)


def test_unique_trace_candidate_lists_no_traces():
    """At 2^61 - 1 the candidate list of a modulus 1 or 2 would hold billions
    of traces."""
    q = 2**61 - 1
    tb = od.hasse_interval(q).trace_bound
    assert od.unique_trace_candidate(od.Congruence(0, 1), q) is None
    assert od.unique_trace_candidate(od.Congruence(0, 2), 10**12 + 39) is None
    assert od.unique_trace_candidate(od.Congruence(5, 2 * tb + 1), q) == 5
    assert od.unique_trace_candidate(od.Congruence(tb, 2 * tb + 1), q) == tb
    assert od.unique_trace_candidate(od.Congruence(tb + 1, 2 * tb + 1), q) == -tb
    assert od.unique_trace_candidate(od.Congruence(tb, 2 * tb), q) is None  # tb and -tb


def test_trace_candidates_random_oracle():
    rng = random.Random(23)
    for _ in range(10_000):
        q = rng.choice([2, 3, 4, 5, 7, 9, 16, 49, 229, 1009])
        m = rng.randrange(1, 200)
        a = rng.randrange(m)
        tb = isqrt(4 * q)
        brute = [x for x in range(-tb, tb + 1) if x % m == a % m]
        assert od.trace_candidates(od.Congruence(a, m), q) == brute
        expected = brute[0] if len(brute) == 1 else None
        assert od.unique_trace_candidate(od.Congruence(a, m), q) == expected


# --- integer utilities ------------------------------------------------------------

def test_integer_utilities():
    assert factorize(24) == [2, 2, 2, 3]
    assert factorize(1) == []
    assert isqrt(4 * 49) == 14
    with pytest.raises(ValueError):
        factorize(1 << 63)
    assert divisors(24) == [1, 2, 3, 4, 6, 8, 12, 24]
